//! Dual-tree admissibility traversal: interaction lists and nearfield lists.
//!
//! Following §III-A of the paper, the recursion starts from the root paired
//! with itself. A well-separated pair (the `eta = 0.7` criterion of
//! [`crate::bbox::BoundingBox::well_separated`]) is added to both nodes'
//! *interaction lists*; a non-separated pair of leaves lands in the
//! *nearfield*; otherwise the recursion descends into the children of the
//! non-leaf (of the larger-diameter node when both are internal). A node's
//! interaction list therefore contains exactly the nodes that are in its
//! farfield but not in its parent's farfield.

use crate::tree::{ClusterTree, NodeId};

/// Interaction and nearfield lists for every node of a cluster tree.
#[derive(Clone, Debug)]
pub struct BlockLists {
    /// Per-node interaction list (both directions are recorded).
    pub interaction: Vec<Vec<NodeId>>,
    /// Per-leaf nearfield list, including the leaf itself (both directions).
    pub nearfield: Vec<Vec<NodeId>>,
    /// Unique admissible pairs `(i, j)` with `i <= j`, strictly ascending.
    pub interaction_pairs: Vec<(NodeId, NodeId)>,
    /// Unique nearfield leaf pairs `(i, j)` with `i <= j` (includes `(i,i)`),
    /// strictly ascending.
    pub nearfield_pairs: Vec<(NodeId, NodeId)>,
    /// The separation parameter used.
    pub eta: f64,
}

impl BlockLists {
    /// Total number of unique admissible pairs.
    pub fn total_interaction_pairs(&self) -> usize {
        self.interaction_pairs.len()
    }

    /// Total number of unique nearfield pairs.
    pub fn total_nearfield_pairs(&self) -> usize {
        self.nearfield_pairs.len()
    }

    /// Heap bytes held (for memory accounting).
    pub fn bytes(&self) -> usize {
        let w = std::mem::size_of::<usize>();
        let lists: usize = self
            .interaction
            .iter()
            .chain(self.nearfield.iter())
            .map(|l| l.capacity() * w)
            .sum();
        lists + (self.interaction_pairs.capacity() + self.nearfield_pairs.capacity()) * 2 * w
    }
}

/// Builds interaction and nearfield lists for `tree` with separation `eta`.
///
/// Each pair list comes out strictly ascending (sorted, every unordered
/// pair once) and canonical (`i <= j`). A block table relies on it: a
/// block's slot is its pair's position in the list, found by binary search.
pub fn build_block_lists(tree: &ClusterTree, eta: f64) -> BlockLists {
    assert!(eta > 0.0, "eta must be positive");
    let n = tree.node_count();
    let mut lists = BlockLists {
        interaction: vec![Vec::new(); n],
        nearfield: vec![Vec::new(); n],
        interaction_pairs: Vec::new(),
        nearfield_pairs: Vec::new(),
        eta,
    };
    // Explicit stack: each unordered pair is visited at most once.
    let mut stack: Vec<(NodeId, NodeId)> = vec![(tree.root(), tree.root())];
    while let Some((i, j)) = stack.pop() {
        if i == j {
            let nd = tree.node(i);
            if nd.is_leaf() {
                lists.nearfield[i].push(i);
                lists.nearfield_pairs.push((i, i));
            } else {
                let ch = &nd.children;
                for a in 0..ch.len() {
                    for b in a..ch.len() {
                        stack.push((ch[a], ch[b]));
                    }
                }
            }
            continue;
        }
        let (ni, nj) = (tree.node(i), tree.node(j));
        if ni.bbox.well_separated(&nj.bbox, eta) {
            lists.interaction[i].push(j);
            lists.interaction[j].push(i);
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            lists.interaction_pairs.push((a, b));
        } else if ni.is_leaf() && nj.is_leaf() {
            lists.nearfield[i].push(j);
            lists.nearfield[j].push(i);
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            lists.nearfield_pairs.push((a, b));
        } else {
            // Split the non-leaf; when both are internal, split the node
            // with the larger diameter (ties: the one with more points).
            let split_i = if ni.is_leaf() {
                false
            } else if nj.is_leaf() {
                true
            } else {
                let di = ni.bbox.diameter();
                let dj = nj.bbox.diameter();
                if di != dj {
                    di > dj
                } else {
                    ni.len() >= nj.len()
                }
            };
            if split_i {
                for &c in &ni.children {
                    stack.push((c, j));
                }
            } else {
                for &c in &nj.children {
                    stack.push((i, c));
                }
            }
        }
    }
    // Deterministic ordering independent of traversal order.
    for l in lists
        .interaction
        .iter_mut()
        .chain(lists.nearfield.iter_mut())
    {
        l.sort_unstable();
    }
    lists.interaction_pairs.sort_unstable();
    lists.nearfield_pairs.sort_unstable();
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::tree::{ClusterTree, TreeParams};

    fn setup(n: usize, dim: usize, leaf: usize, seed: u64) -> (ClusterTree, BlockLists) {
        let pts = gen::uniform_cube(n, dim, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(leaf));
        let lists = build_block_lists(&tree, 0.7);
        (tree, lists)
    }

    #[test]
    fn symmetry_of_lists() {
        let (_, lists) = setup(600, 3, 32, 1);
        for (i, l) in lists.interaction.iter().enumerate() {
            for &j in l {
                assert!(lists.interaction[j].contains(&i));
            }
        }
        for (i, l) in lists.nearfield.iter().enumerate() {
            for &j in l {
                assert!(lists.nearfield[j].contains(&i));
            }
        }
    }

    #[test]
    fn interaction_pairs_are_well_separated() {
        let (tree, lists) = setup(500, 2, 25, 2);
        for &(i, j) in &lists.interaction_pairs {
            assert!(tree.node(i).bbox.well_separated(&tree.node(j).bbox, 0.7));
        }
    }

    #[test]
    fn nearfield_pairs_are_leaves_and_close() {
        let (tree, lists) = setup(500, 2, 25, 3);
        for &(i, j) in &lists.nearfield_pairs {
            assert!(tree.node(i).is_leaf());
            assert!(tree.node(j).is_leaf());
            if i != j {
                assert!(!tree.node(i).bbox.well_separated(&tree.node(j).bbox, 0.7));
            }
        }
    }

    /// Every ordered leaf pair must be covered exactly once: either by the
    /// nearfield, or by exactly one admissible ancestor pair. This is the
    /// completeness property that makes `A ≈ nearfield + sum of farfield
    /// blocks` a partition of the matrix.
    #[test]
    fn leaf_pairs_partitioned_exactly_once() {
        let (tree, lists) = setup(400, 3, 20, 4);
        // ancestors of each node, including itself
        let anc = |mut x: NodeId| {
            let mut v = vec![x];
            while let Some(p) = tree.node(x).parent {
                v.push(p);
                x = p;
            }
            v
        };
        let interaction_set: std::collections::HashSet<(NodeId, NodeId)> = lists
            .interaction_pairs
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        let nearfield_set: std::collections::HashSet<(NodeId, NodeId)> = lists
            .nearfield_pairs
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        for &li in tree.leaves() {
            for &lj in tree.leaves() {
                let mut count = 0;
                if nearfield_set.contains(&(li, lj)) {
                    count += 1;
                }
                for &ai in &anc(li) {
                    for &aj in &anc(lj) {
                        if interaction_set.contains(&(ai, aj)) {
                            count += 1;
                        }
                    }
                }
                assert_eq!(count, 1, "leaf pair ({li}, {lj}) covered {count} times");
            }
        }
    }

    #[test]
    fn self_nearfield_present_for_every_leaf() {
        let (tree, lists) = setup(300, 2, 30, 5);
        for &l in tree.leaves() {
            assert!(lists.nearfield[l].contains(&l));
        }
    }

    #[test]
    fn larger_eta_admits_more() {
        let pts = gen::uniform_cube(500, 3, 6);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(25));
        let strict = build_block_lists(&tree, 0.5);
        let loose = build_block_lists(&tree, 0.9);
        // Looser separation admits pairs higher in the tree -> fewer or equal
        // nearfield blocks.
        assert!(loose.total_nearfield_pairs() <= strict.total_nearfield_pairs());
    }

    #[test]
    fn single_leaf_tree_all_nearfield() {
        let pts = gen::uniform_cube(10, 2, 7);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
        let lists = build_block_lists(&tree, 0.7);
        assert_eq!(lists.total_interaction_pairs(), 0);
        assert_eq!(lists.total_nearfield_pairs(), 1);
    }

    #[test]
    fn interaction_not_in_parent_farfield() {
        // A node's interaction list must only contain nodes NOT well
        // separated from the node's parent (else the parent pair would have
        // been admitted higher up).
        let (tree, lists) = setup(800, 3, 32, 8);
        for (i, l) in lists.interaction.iter().enumerate() {
            if let Some(p) = tree.node(i).parent {
                for &j in l {
                    // j (or an ancestor of j) paired with p must not be
                    // admissible at the point the traversal split p.
                    // Weaker but checkable form: (p, j) itself not recorded.
                    assert!(
                        !lists.interaction[p].contains(&j),
                        "pair ({i},{j}) also present at parent {p}"
                    );
                }
            }
        }
    }
}
