//! Shard partitioning of a cluster tree: the cut, the ownership map, and
//! the halos.
//!
//! The tree is cut at a **distribution level** `ℓ_d`
//! ([`ClusterTree::cut_at_level`], the same cut the sweep engine groups its
//! threads' work by): every node at level `ℓ_d`, plus every leaf that
//! bottoms out above it, becomes a **cut root**.
//! Cut roots tile the tree-position range `0..n` contiguously (children tile
//! their parent's range in order), so assigning contiguous *runs* of cut
//! roots to shards gives every shard one contiguous slice of the permuted
//! point range — leaves and nearfield data never straddle a shard boundary
//! mid-node. Everything strictly above the cut is the coordinator-owned
//! **top tree**.
//!
//! Because leaves that are shallower than `ℓ_d` are folded into the cut,
//! *every* leaf is shard-owned: the nearfield is a purely shard-level
//! concern, and the coordinator only ever touches coefficient panels.
//!
//! The partition also precomputes every shard's **halo** — exactly which
//! foreign upward coefficients (`q` panels), foreign input slices (`b`
//! panels for cross-shard nearfield blocks), and top-tree coefficients each
//! rank must exchange. The distributed matvec sends precisely these sets and
//! nothing else, and a unit test below checks the halo equals the set of
//! foreign nodes referenced by cross-shard blocks — no over- or
//! under-shipping.

use h2_points::admissibility::BlockLists;
use h2_points::{ClusterTree, NodeId};
use std::collections::BTreeSet;

/// Which rank owns a node's computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// The coordinator's top tree (strictly above the cut).
    Top,
    /// Shard `s` (a cut root or one of its descendants).
    Shard(usize),
}

/// Partitioning failures (all detectable before any thread is spawned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistError {
    /// Zero shards requested.
    ZeroShards,
    /// More shards than the tree has leaves — no level can provide a cut
    /// root per shard.
    TooManyShards {
        /// Shards requested.
        shards: usize,
        /// Leaves available (the maximum possible cut width).
        leaves: usize,
    },
    /// An explicit distribution level whose cut is narrower than the shard
    /// count.
    LevelTooShallow {
        /// The requested level.
        level: usize,
        /// Cut width at that level.
        cut: usize,
        /// Shards requested.
        shards: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::ZeroShards => write!(f, "at least one shard is required"),
            DistError::TooManyShards { shards, leaves } => {
                write!(
                    f,
                    "{shards} shards requested but the tree has only {leaves} leaves"
                )
            }
            DistError::LevelTooShallow { level, cut, shards } => write!(
                f,
                "distribution level {level} has a cut of {cut} nodes, fewer than {shards} shards"
            ),
        }
    }
}

impl std::error::Error for DistError {}

/// A shard partition of a cluster tree, with per-rank exchange sets.
///
/// Indexing convention throughout: shards are ranks `0..shards`, the
/// coordinator is rank `shards`.
#[derive(Clone, Debug)]
pub struct TreePartition {
    /// Number of shards.
    pub shards: usize,
    /// The distribution level the cut was taken at.
    pub level: usize,
    /// Per-node owner.
    pub owner: Vec<Owner>,
    /// All cut roots in tree-position order.
    pub cut_nodes: Vec<NodeId>,
    /// Cut roots per shard (contiguous runs of `cut_nodes`).
    pub shard_cut_roots: Vec<Vec<NodeId>>,
    /// Tree-position range `[lo, hi)` owned by each shard.
    pub shard_ranges: Vec<(usize, usize)>,
    /// Per shard: owned nodes grouped by absolute tree level (root level
    /// first, same indexing as [`ClusterTree::levels`]).
    pub shard_levels: Vec<Vec<Vec<NodeId>>>,
    /// Per shard: owned leaves.
    pub shard_leaves: Vec<Vec<NodeId>>,
    /// Top-tree nodes grouped by absolute tree level.
    pub top_levels: Vec<Vec<NodeId>>,
    /// Total number of top-tree nodes.
    pub top_count: usize,
    /// `halo_q[a][b]`: nodes owned by shard `a` whose upward coefficients
    /// shard `b` needs for its horizontal sweep (sorted).
    pub halo_q: Vec<Vec<Vec<NodeId>>>,
    /// `halo_b[a][b]`: leaves owned by shard `a` whose input slices shard
    /// `b` needs for cross-shard nearfield blocks (sorted).
    pub halo_b: Vec<Vec<Vec<NodeId>>>,
    /// Per shard: owned nodes whose upward coefficients the coordinator
    /// needs — cut roots feeding the top upward sweep, plus shard nodes
    /// paired with top nodes in the interaction lists (sorted).
    pub up_nodes: Vec<Vec<NodeId>>,
    /// Per shard: top nodes whose upward coefficients the shard needs for
    /// its horizontal sweep (sorted).
    pub need_top_q: Vec<Vec<NodeId>>,
    /// Per shard: top parents of the shard's cut roots, whose final
    /// downward coefficients the shard needs (sorted).
    pub top_g_parents: Vec<Vec<NodeId>>,
}

impl TreePartition {
    /// Partitions at the shallowest level whose cut is at least `shards`
    /// wide (the least communication-heavy valid cut).
    pub fn new(tree: &ClusterTree, lists: &BlockLists, shards: usize) -> Result<Self, DistError> {
        if shards == 0 {
            return Err(DistError::ZeroShards);
        }
        match tree.level_with_cut(shards) {
            Some(level) => Self::with_level(tree, lists, shards, level),
            None => Err(DistError::TooManyShards {
                shards,
                leaves: tree.leaves().len(),
            }),
        }
    }

    /// Partitions at an explicit distribution level.
    pub fn with_level(
        tree: &ClusterTree,
        lists: &BlockLists,
        shards: usize,
        level: usize,
    ) -> Result<Self, DistError> {
        if shards == 0 {
            return Err(DistError::ZeroShards);
        }
        let cut_nodes = tree.cut_at_level(level);
        if cut_nodes.len() < shards {
            return Err(DistError::LevelTooShallow {
                level,
                cut: cut_nodes.len(),
                shards,
            });
        }

        // Greedy contiguous assignment balancing point counts: each shard
        // takes cut roots until it reaches its proportional share of the
        // points still unassigned, always leaving at least one root per
        // remaining shard.
        let n = tree.points().len();
        let mut shard_cut_roots: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let mut shard_ranges = Vec::with_capacity(shards);
        let mut idx = 0;
        let mut points_left = n;
        for (s, roots) in shard_cut_roots.iter_mut().enumerate() {
            let shards_left = shards - s;
            let lo = tree.node(cut_nodes[idx]).start;
            let mut here = 0;
            loop {
                here += tree.node(cut_nodes[idx]).len();
                roots.push(cut_nodes[idx]);
                idx += 1;
                let roots_left = cut_nodes.len() - idx;
                if roots_left < shards_left || here * shards_left >= points_left {
                    break;
                }
            }
            points_left -= here;
            shard_ranges.push((lo, lo + here));
        }
        debug_assert_eq!(idx, cut_nodes.len());
        debug_assert_eq!(shard_ranges[shards - 1].1, n);

        // Ownership: cut subtrees belong to their shard, the rest is top.
        let mut owner = vec![Owner::Top; tree.node_count()];
        for (s, roots) in shard_cut_roots.iter().enumerate() {
            for &r in roots {
                let mut stack = vec![r];
                while let Some(i) = stack.pop() {
                    owner[i] = Owner::Shard(s);
                    stack.extend_from_slice(&tree.node(i).children);
                }
            }
        }

        // Per-rank level groupings (absolute tree levels).
        let n_levels = tree.levels().len();
        let mut shard_levels = vec![vec![Vec::new(); n_levels]; shards];
        let mut top_levels = vec![Vec::new(); n_levels];
        let mut top_count = 0;
        for (lv, ids) in tree.levels().iter().enumerate() {
            for &i in ids {
                match owner[i] {
                    Owner::Top => {
                        top_levels[lv].push(i);
                        top_count += 1;
                    }
                    Owner::Shard(s) => shard_levels[s][lv].push(i),
                }
            }
        }
        let mut shard_leaves = vec![Vec::new(); shards];
        for &l in tree.leaves() {
            match owner[l] {
                Owner::Shard(s) => shard_leaves[s].push(l),
                Owner::Top => unreachable!("every leaf is inside a cut subtree"),
            }
        }

        // Halos from the interaction structure. Every admissible pair
        // (i, j) is applied from both endpoints, so each side's owner needs
        // the other side's upward coefficient.
        let mut halo_q: Vec<Vec<BTreeSet<NodeId>>> = vec![vec![BTreeSet::new(); shards]; shards];
        let mut up_nodes: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); shards];
        let mut need_top_q: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); shards];
        for &(i, j) in &lists.interaction_pairs {
            match (owner[i], owner[j]) {
                (Owner::Shard(a), Owner::Shard(b)) if a != b => {
                    halo_q[a][b].insert(i);
                    halo_q[b][a].insert(j);
                }
                (Owner::Shard(a), Owner::Top) => {
                    up_nodes[a].insert(i);
                    need_top_q[a].insert(j);
                }
                (Owner::Top, Owner::Shard(b)) => {
                    up_nodes[b].insert(j);
                    need_top_q[b].insert(i);
                }
                _ => {} // same shard, or top–top: no exchange
            }
        }
        // Cut roots additionally feed the top upward sweep (their parent is
        // a top node whenever a top tree exists at all).
        let mut top_g_parents: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); shards];
        for (s, roots) in shard_cut_roots.iter().enumerate() {
            for &r in roots {
                if let Some(p) = tree.node(r).parent {
                    debug_assert_eq!(owner[p], Owner::Top);
                    up_nodes[s].insert(r);
                    top_g_parents[s].insert(p);
                }
            }
        }

        let mut halo_b: Vec<Vec<BTreeSet<NodeId>>> = vec![vec![BTreeSet::new(); shards]; shards];
        for &(i, j) in &lists.nearfield_pairs {
            match (owner[i], owner[j]) {
                (Owner::Shard(a), Owner::Shard(b)) if a != b => {
                    halo_b[a][b].insert(i);
                    halo_b[b][a].insert(j);
                }
                _ => {}
            }
        }

        let flatten2 = |v: Vec<Vec<BTreeSet<NodeId>>>| -> Vec<Vec<Vec<NodeId>>> {
            v.into_iter()
                .map(|row| row.into_iter().map(|s| s.into_iter().collect()).collect())
                .collect()
        };
        let flatten = |v: Vec<BTreeSet<NodeId>>| -> Vec<Vec<NodeId>> {
            v.into_iter().map(|s| s.into_iter().collect()).collect()
        };

        Ok(TreePartition {
            shards,
            level,
            owner,
            cut_nodes,
            shard_cut_roots,
            shard_ranges,
            shard_levels,
            shard_leaves,
            top_levels,
            top_count,
            halo_q: flatten2(halo_q),
            halo_b: flatten2(halo_b),
            up_nodes: flatten(up_nodes),
            need_top_q: flatten(need_top_q),
            top_g_parents: flatten(top_g_parents),
        })
    }

    /// The owner of a node.
    pub fn owner(&self, i: NodeId) -> Owner {
        self.owner[i]
    }

    /// The coordinator's rank (`shards`; shards are `0..shards`).
    pub fn coordinator(&self) -> usize {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_points::admissibility::build_block_lists;
    use h2_points::{gen, TreeParams};

    fn setup(n: usize, leaf: usize, seed: u64) -> (ClusterTree, BlockLists) {
        let pts = gen::uniform_cube(n, 3, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(leaf));
        let lists = build_block_lists(&tree, 0.7);
        (tree, lists)
    }

    #[test]
    fn shards_cover_disjoint_contiguous_ranges() {
        let (tree, lists) = setup(900, 32, 2);
        for shards in [1, 2, 4, 7] {
            let p = TreePartition::new(&tree, &lists, shards).unwrap();
            let mut pos = 0;
            for &(lo, hi) in &p.shard_ranges {
                assert_eq!(lo, pos);
                assert!(hi > lo, "empty shard");
                pos = hi;
            }
            assert_eq!(pos, 900);
            // Every node has exactly one owner and shard nodes sit inside
            // their shard's range.
            for (i, nd) in tree.nodes().iter().enumerate() {
                if let Owner::Shard(s) = p.owner(i) {
                    let (lo, hi) = p.shard_ranges[s];
                    assert!(nd.start >= lo && nd.end <= hi);
                }
            }
        }
    }

    #[test]
    fn every_leaf_is_shard_owned() {
        let (tree, lists) = setup(600, 24, 3);
        let p = TreePartition::new(&tree, &lists, 4).unwrap();
        for &l in tree.leaves() {
            assert!(matches!(p.owner(l), Owner::Shard(_)));
        }
        let total: usize = p.shard_leaves.iter().map(|v| v.len()).sum();
        assert_eq!(total, tree.leaves().len());
    }

    #[test]
    fn assignment_is_point_balanced() {
        let (tree, lists) = setup(2000, 16, 4);
        let p = TreePartition::new(&tree, &lists, 4).unwrap();
        let sizes: Vec<usize> = p.shard_ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let ideal = 2000.0 / 4.0;
        // Greedy over a fine cut should stay well under 2x imbalance.
        assert!(max < 2.0 * ideal, "imbalanced shards: {sizes:?}");
    }

    /// The halo must contain *exactly* the foreign nodes referenced by
    /// cross-shard coupling/nearfield blocks — derived here independently
    /// from the per-node lists rather than the pair list the builder used.
    #[test]
    fn halo_is_exactly_the_cross_shard_references() {
        let (tree, lists) = setup(1200, 24, 5);
        let p = TreePartition::new(&tree, &lists, 4).unwrap();
        for b in 0..4 {
            // Foreign q's shard b needs: interaction partners of its owned
            // nodes that are owned by another shard (top partners are
            // served by the coordinator's TopQ instead).
            let mut need_q: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); 4];
            let mut need_top: BTreeSet<NodeId> = BTreeSet::new();
            let mut need_b: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); 4];
            for (i, _) in tree.nodes().iter().enumerate() {
                if p.owner(i) != Owner::Shard(b) {
                    continue;
                }
                for &j in &lists.interaction[i] {
                    match p.owner(j) {
                        Owner::Shard(a) if a != b => {
                            need_q[a].insert(j);
                        }
                        Owner::Top => {
                            need_top.insert(j);
                        }
                        _ => {}
                    }
                }
                for &j in &lists.nearfield[i] {
                    if let Owner::Shard(a) = p.owner(j) {
                        if a != b {
                            need_b[a].insert(j);
                        }
                    }
                }
            }
            for a in 0..4 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    p.halo_q[a][b],
                    need_q[a].iter().copied().collect::<Vec<_>>(),
                    "halo_q[{a}][{b}]"
                );
                assert_eq!(
                    p.halo_b[a][b],
                    need_b[a].iter().copied().collect::<Vec<_>>(),
                    "halo_b[{a}][{b}]"
                );
            }
            assert_eq!(
                p.need_top_q[b],
                need_top.iter().copied().collect::<Vec<_>>(),
                "need_top_q[{b}]"
            );
        }
    }

    #[test]
    fn up_nodes_cover_cut_roots_and_mixed_pairs() {
        let (tree, lists) = setup(1000, 24, 6);
        let p = TreePartition::new(&tree, &lists, 3).unwrap();
        for s in 0..3 {
            for &r in &p.shard_cut_roots[s] {
                if tree.node(r).parent.is_some() {
                    assert!(p.up_nodes[s].contains(&r), "cut root {r} missing");
                }
            }
        }
        // Every top node's shard-owned interaction partner must be gathered.
        for (i, _) in tree.nodes().iter().enumerate() {
            if p.owner(i) != Owner::Top {
                continue;
            }
            for &j in &lists.interaction[i] {
                if let Owner::Shard(s) = p.owner(j) {
                    assert!(p.up_nodes[s].contains(&j), "mixed-pair node {j} missing");
                }
            }
        }
    }

    #[test]
    fn single_shard_owns_everything_below_root() {
        let (tree, lists) = setup(500, 32, 7);
        let p = TreePartition::new(&tree, &lists, 1).unwrap();
        assert_eq!(p.level, 0);
        assert_eq!(p.top_count, 0);
        assert!(p.up_nodes[0].is_empty());
        assert!(p.need_top_q[0].is_empty());
        for i in 0..tree.node_count() {
            assert_eq!(p.owner(i), Owner::Shard(0));
        }
    }

    #[test]
    fn errors_are_reported() {
        let (tree, lists) = setup(300, 32, 8);
        assert_eq!(
            TreePartition::new(&tree, &lists, 0).err(),
            Some(DistError::ZeroShards)
        );
        let leaves = tree.leaves().len();
        assert_eq!(
            TreePartition::new(&tree, &lists, leaves + 1).err(),
            Some(DistError::TooManyShards {
                shards: leaves + 1,
                leaves
            })
        );
        assert!(matches!(
            TreePartition::with_level(&tree, &lists, 4, 0),
            Err(DistError::LevelTooShallow { .. })
        ));
    }
}
