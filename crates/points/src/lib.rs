//! # h2-points
//!
//! Geometry substrate for the `h2mv` workspace: d-dimensional point sets,
//! bounding boxes, synthetic dataset generators (including the paper's cube,
//! sphere, hypercube and a procedural "dino" surrogate), the adaptive
//! **cluster tree** built by recursive longest-axis bisection, and the
//! dual-tree **admissibility traversal** that produces interaction lists and
//! nearfield lists with the paper's `0.7` well-separation criterion.
//!
//! ```
//! use h2_points::{gen, tree::{ClusterTree, TreeParams}, admissibility::build_block_lists};
//!
//! let pts = gen::uniform_cube(500, 3, 42);
//! let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
//! let lists = build_block_lists(&tree, 0.7);
//! assert!(lists.total_interaction_pairs() > 0);
//! ```

pub mod admissibility;
pub mod bbox;
pub mod gen;
pub mod pointset;
pub mod tree;

pub use bbox::BoundingBox;
pub use pointset::PointSet;
pub use tree::{ClusterTree, NodeId, SubtreeCut, TreeParams};
