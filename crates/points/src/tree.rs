//! Adaptive cluster tree (recursive longest-axis median bisection).
//!
//! The tree owns the point set and a permutation such that every node covers
//! a *contiguous* range of the permutation — the property the H² matvec
//! relies on to slice the input/output vectors without gathers at the leaf
//! level. Splitting is by median along the longest axis of the node's tight
//! bounding box, so the tree is balanced (depth `O(log n)`) regardless of the
//! point distribution, matching the "divide-and-conquer" construction of the
//! paper (§III-A).

use crate::bbox::BoundingBox;
use crate::pointset::PointSet;

/// Index of a node in the tree's node arena.
pub type NodeId = usize;

/// Construction parameters for [`ClusterTree::build`].
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum number of points in a leaf. The paper notes leaves "on the
    /// order of hundreds" perform best; 128 is our default.
    pub leaf_size: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { leaf_size: 128 }
    }
}

impl TreeParams {
    /// Params with the given leaf size.
    pub fn with_leaf_size(leaf_size: usize) -> Self {
        assert!(leaf_size >= 1);
        TreeParams { leaf_size }
    }
}

/// One node of the cluster tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Start of this node's range in the permutation array.
    pub start: usize,
    /// One past the end of the range.
    pub end: usize,
    /// Child node ids (empty for leaves, two for internal nodes).
    pub children: Vec<NodeId>,
    /// Parent id (`None` for the root).
    pub parent: Option<NodeId>,
    /// Depth (root = 0).
    pub level: usize,
    /// Tight bounding box of the node's points.
    pub bbox: BoundingBox,
}

impl Node {
    /// Number of points in the node.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for zero-point nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A node set cut into independent subtrees ([`ClusterTree::cut_subtrees`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubtreeCut {
    /// The set's nodes above the cut level, root level first.
    pub above: Vec<NodeId>,
    /// Per cut root, in the order of the cut level: the root, then its
    /// descendants in the set level by level (parents before children, so
    /// walked backwards, children before parents).
    pub subtrees: Vec<Vec<NodeId>>,
}

/// A balanced cluster tree over an owned point set.
#[derive(Clone, Debug)]
pub struct ClusterTree {
    points: PointSet,
    /// `perm[pos]` = original index of the point at tree position `pos`.
    perm: Vec<usize>,
    nodes: Vec<Node>,
    /// Node ids grouped by level, root level first.
    levels: Vec<Vec<NodeId>>,
    /// Leaf node ids.
    leaves: Vec<NodeId>,
}

impl ClusterTree {
    /// Builds the tree over `points` (must be non-empty).
    pub fn build(points: &PointSet, params: TreeParams) -> Self {
        assert!(!points.is_empty(), "cannot build a tree over no points");
        let n = points.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * n / params.leaf_size + 2);
        // Iterative worklist so deep trees cannot overflow the stack; nodes
        // are appended parent-first so ids are topologically ordered.
        struct Work {
            start: usize,
            end: usize,
            parent: Option<NodeId>,
            level: usize,
        }
        let mut stack = vec![Work {
            start: 0,
            end: n,
            parent: None,
            level: 0,
        }];
        while let Some(w) = stack.pop() {
            let seg = &perm[w.start..w.end];
            let bbox = BoundingBox::of_points(points, seg);
            let id = nodes.len();
            nodes.push(Node {
                start: w.start,
                end: w.end,
                children: Vec::new(),
                parent: w.parent,
                level: w.level,
                bbox,
            });
            if let Some(p) = w.parent {
                nodes[p].children.push(id);
            }
            let len = w.end - w.start;
            if len > params.leaf_size {
                // Split at the median of the longest axis. A degenerate box
                // (all points identical) cannot be split; keep as a leaf.
                let node_bb = &nodes[id].bbox;
                if node_bb.diameter() > 0.0 {
                    let axis = node_bb.longest_axis();
                    let mid = w.start + len / 2;
                    let seg = &mut perm[w.start..w.end];
                    let k = len / 2;
                    seg.select_nth_unstable_by(k, |&a, &b| {
                        points.point(a)[axis].total_cmp(&points.point(b)[axis])
                    });
                    // Push right first so the left child is created first
                    // (child ids in [left, right] order).
                    stack.push(Work {
                        start: mid,
                        end: w.end,
                        parent: Some(id),
                        level: w.level + 1,
                    });
                    stack.push(Work {
                        start: w.start,
                        end: mid,
                        parent: Some(id),
                        level: w.level + 1,
                    });
                }
            }
        }
        // Children were pushed in creation order; with the LIFO stack the
        // left child is created first, so order is already [left, right].
        let depth = nodes.iter().map(|nd| nd.level).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); depth + 1];
        let mut leaves = Vec::new();
        for (id, nd) in nodes.iter().enumerate() {
            levels[nd.level].push(id);
            if nd.is_leaf() {
                leaves.push(id);
            }
        }
        ClusterTree {
            points: points.clone(),
            perm,
            nodes,
            levels,
            leaves,
        }
    }

    /// Reassembles a tree from its serialized parts (points, permutation and
    /// node arena), revalidating every structural invariant `build`
    /// guarantees and rebuilding the level/leaf indices. Returns `Err` —
    /// never panics — on any inconsistency, so deserializers can surface
    /// corrupt input as a typed error.
    pub fn from_parts(
        points: PointSet,
        perm: Vec<usize>,
        nodes: Vec<Node>,
    ) -> Result<Self, String> {
        let n = points.len();
        if n == 0 {
            return Err("tree over empty point set".into());
        }
        if perm.len() != n {
            return Err(format!(
                "permutation length {} != point count {n}",
                perm.len()
            ));
        }
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n || seen[p] {
                return Err(format!("perm entry {p} out of range or duplicated"));
            }
            seen[p] = true;
        }
        if nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        let root = &nodes[0];
        if root.start != 0 || root.end != n || root.parent.is_some() || root.level != 0 {
            return Err("node 0 is not a root covering all points".into());
        }
        let d = points.dim();
        for (id, nd) in nodes.iter().enumerate() {
            if nd.start >= nd.end || nd.end > n {
                return Err(format!(
                    "node {id} has invalid range {}..{}",
                    nd.start, nd.end
                ));
            }
            if nd.bbox.dim() != d {
                return Err(format!("node {id} bbox dimension != {d}"));
            }
            if id > 0 {
                let Some(p) = nd.parent else {
                    return Err(format!("non-root node {id} has no parent"));
                };
                if p >= id {
                    return Err(format!("node {id} parent {p} not topologically earlier"));
                }
                if !nodes[p].children.contains(&id) {
                    return Err(format!("node {id} missing from its parent's children"));
                }
                if nd.level != nodes[p].level + 1 {
                    return Err(format!("node {id} level != parent level + 1"));
                }
            }
            if !nd.children.is_empty() {
                // Children must tile the parent's range contiguously, in order.
                let mut pos = nd.start;
                for &c in &nd.children {
                    if c <= id || c >= nodes.len() {
                        return Err(format!("node {id} child {c} out of order or range"));
                    }
                    if nodes[c].start != pos {
                        return Err(format!("children of node {id} do not tile its range"));
                    }
                    pos = nodes[c].end;
                }
                if pos != nd.end {
                    return Err(format!("children of node {id} do not cover its range"));
                }
            }
        }
        let depth = nodes.iter().map(|nd| nd.level).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); depth + 1];
        let mut leaves = Vec::new();
        for (id, nd) in nodes.iter().enumerate() {
            levels[nd.level].push(id);
            if nd.is_leaf() {
                leaves.push(id);
            }
        }
        Ok(ClusterTree {
            points,
            perm,
            nodes,
            levels,
            leaves,
        })
    }

    /// The (owned copy of the) point set, in original order.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// The permutation: `perm()[pos]` = original index at tree position `pos`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// All nodes (arena order = parent before children).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A single node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node ids per level (index 0 = root level).
    pub fn levels(&self) -> &[Vec<NodeId>] {
        &self.levels
    }

    /// Tree depth (root level = 0, so depth = number of levels - 1).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// Leaf node ids.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Original point indices owned by `id` (a slice of the permutation).
    pub fn node_indices(&self, id: NodeId) -> &[usize] {
        let nd = &self.nodes[id];
        &self.perm[nd.start..nd.end]
    }

    /// Convenience: the points of a node gathered into a new set.
    pub fn node_points(&self, id: NodeId) -> PointSet {
        self.points.select(self.node_indices(id))
    }

    /// The cut at `level`: every node at that level plus every leaf above
    /// it, in tree-position order. Cut roots tile `0..n` contiguously, so
    /// every leaf sits in exactly one cut subtree; everything strictly
    /// above the cut is the *top* part.
    pub fn cut_at_level(&self, level: usize) -> Vec<NodeId> {
        let mut cut: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&i| {
                let nd = &self.nodes[i];
                nd.level == level || (nd.is_leaf() && nd.level < level)
            })
            .collect();
        cut.sort_by_key(|&i| self.nodes[i].start);
        cut
    }

    /// The shallowest level whose cut is at least `width` nodes wide
    /// (`None` when even the leaves are fewer).
    pub fn level_with_cut(&self, width: usize) -> Option<usize> {
        (0..=self.depth()).find(|&level| self.cut_at_level(level).len() >= width)
    }

    /// Cuts a **root-closed** node set (with every node, its parent),
    /// grouped by level (`levels[l]` at level `l`), into subtrees that a
    /// tree pass can run as independent tasks at `threads` wide.
    ///
    /// The cut level is the shallowest one holding at least
    /// `min(4 · threads, widest level)` nodes of the set: a whole tree gets
    /// a few subtrees per thread, and two root-to-leaf paths get one
    /// subtree each below the node where they meet. Every node of the set
    /// at the cut level roots one subtree; the set's nodes below it go to
    /// their ancestor's; the few above it are [`SubtreeCut::above`]. A
    /// node's subtree holds its descendants in the set, so an upward pass
    /// (a node reads its children) or a downward one (a node reads its
    /// parent) runs a subtree start to finish on one thread. The cut only
    /// says which thread computes a node, so a pass that computes every
    /// node by the same rule gets the same results at any `threads`.
    ///
    /// # Panics
    ///
    /// When a node below the cut level lacks its parent.
    pub fn cut_subtrees(&self, levels: &[Vec<NodeId>], threads: usize) -> SubtreeCut {
        let widest = levels.iter().map(Vec::len).max().unwrap_or(0);
        let wanted = (4 * threads).min(widest).max(1);
        let Some(cut) = levels.iter().position(|level| level.len() >= wanted) else {
            return SubtreeCut::default();
        };
        let mut owner = vec![usize::MAX; self.nodes.len()];
        let mut subtrees: Vec<Vec<NodeId>> = (levels[cut].iter().enumerate())
            .map(|(k, &root)| {
                owner[root] = k;
                vec![root]
            })
            .collect();
        for &i in levels[cut + 1..].iter().flatten() {
            let parent = self.nodes[i].parent.expect("only the root lacks a parent");
            let k = owner[parent];
            assert!(
                k != usize::MAX,
                "node set is not root-closed: {parent} missing"
            );
            owner[i] = k;
            subtrees[k].push(i);
        }
        SubtreeCut {
            above: levels[..cut].concat(),
            subtrees,
        }
    }

    // ---- Incremental mutation (dynamic operators) ----------------------
    //
    // The update path of `h2-core` edits the tree in place: a new point is
    // routed to a leaf and spliced into that leaf's permutation range, a
    // departed point is dropped from its range, and an overflowing leaf is
    // split by the same median rule `build` uses. Every mutation preserves
    // the invariants `from_parts` validates (contiguous ranges, topological
    // ids, children tiling parents), so a mutated tree serializes and
    // reloads exactly like a built one.

    /// Routes a point to a leaf: descends from the root picking the child
    /// whose bounding box is nearest (`dist2_to` = 0 when the box contains
    /// the point; ties resolve to the first child, so routing is
    /// deterministic).
    pub fn route_point(&self, p: &[f64]) -> NodeId {
        assert_eq!(p.len(), self.points.dim());
        let mut cur = self.root();
        while !self.nodes[cur].is_leaf() {
            cur = self.nodes[cur]
                .children
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    self.nodes[a]
                        .bbox
                        .dist2_to(p)
                        .total_cmp(&self.nodes[b].bbox.dist2_to(p))
                })
                .unwrap();
        }
        cur
    }

    /// The leaf owning permutation position `pos`.
    pub fn leaf_at(&self, pos: usize) -> NodeId {
        assert!(pos < self.perm.len(), "position {pos} out of range");
        let mut cur = self.root();
        while !self.nodes[cur].is_leaf() {
            cur = self.nodes[cur]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].start <= pos && pos < self.nodes[c].end)
                .expect("children tile the parent range");
        }
        cur
    }

    /// Current permutation position of original point `g` (linear scan).
    pub fn position_of(&self, g: usize) -> Option<usize> {
        self.perm.iter().position(|&x| x == g)
    }

    /// Inserts a point: routes it to a leaf, appends it to the point set,
    /// and splices it into the end of the leaf's permutation range. The
    /// leaf's and its ancestors' bounding boxes grow to contain the point
    /// (boxes only ever grow under mutation — they stay supersets of the
    /// tight boxes `build` computes). Returns the leaf and the new point's
    /// global index.
    pub fn insert_point(&mut self, p: &[f64]) -> (NodeId, usize) {
        let leaf = self.route_point(p);
        let g = self.points.len();
        self.points.push(p);
        let pos = self.nodes[leaf].end;
        self.perm.insert(pos, g);
        let mut on_path = vec![false; self.nodes.len()];
        let mut cur = Some(leaf);
        while let Some(c) = cur {
            on_path[c] = true;
            cur = self.nodes[c].parent;
        }
        // Ranges form a laminar family, so every node either lies on the
        // root-to-leaf path (absorbs the new position) or sits entirely
        // before/after it (shifts or stays).
        for (id, nd) in self.nodes.iter_mut().enumerate() {
            if on_path[id] {
                nd.end += 1;
                nd.bbox.expand(p);
            } else if nd.start >= pos {
                nd.start += 1;
                nd.end += 1;
            }
        }
        (leaf, g)
    }

    /// Removes original point `g`: drops it from its leaf's permutation
    /// range, compacts the point set, and renumbers every stored index
    /// above `g` down by one (callers holding index lists — skeletons,
    /// samples — must renumber the same way). Bounding boxes are not
    /// shrunk; they stay valid supersets. Fails (without mutating) when the
    /// removal would empty a leaf — the caller escalates to a rebuild.
    pub fn remove_point(&mut self, g: usize) -> Result<NodeId, String> {
        if g >= self.points.len() {
            return Err(format!("point {g} out of range"));
        }
        if self.points.len() == 1 {
            return Err("cannot remove the last point".into());
        }
        let pos = self.position_of(g).expect("perm is a permutation");
        let leaf = self.leaf_at(pos);
        if self.nodes[leaf].len() == 1 {
            return Err(format!("removing point {g} would empty leaf {leaf}"));
        }
        self.perm.remove(pos);
        let mut on_path = vec![false; self.nodes.len()];
        let mut cur = Some(leaf);
        while let Some(c) = cur {
            on_path[c] = true;
            cur = self.nodes[c].parent;
        }
        for (id, nd) in self.nodes.iter_mut().enumerate() {
            if on_path[id] {
                nd.end -= 1;
            } else if nd.start > pos {
                nd.start -= 1;
                nd.end -= 1;
            }
        }
        self.points.remove(g);
        for v in &mut self.perm {
            if *v > g {
                *v -= 1;
            }
        }
        Ok(leaf)
    }

    /// Splits leaf `l` at the median of its longest axis — the exact rule
    /// `build` uses — appending two children to the node arena (their ids
    /// are larger than every existing id, keeping the arena topologically
    /// ordered). Returns `None` without mutating when the leaf is too small
    /// or geometrically degenerate (zero-diameter box) to split.
    pub fn split_leaf(&mut self, l: NodeId) -> Option<[NodeId; 2]> {
        let nd = &self.nodes[l];
        assert!(nd.is_leaf(), "split target {l} is not a leaf");
        if nd.len() < 2 || nd.bbox.diameter() == 0.0 {
            return None;
        }
        let (start, end, level) = (nd.start, nd.end, nd.level);
        let axis = nd.bbox.longest_axis();
        let k = (end - start) / 2;
        let mid = start + k;
        let points = &self.points;
        self.perm[start..end].select_nth_unstable_by(k, |&a, &b| {
            points.point(a)[axis].total_cmp(&points.point(b)[axis])
        });
        let lb = BoundingBox::of_points(&self.points, &self.perm[start..mid]);
        let rb = BoundingBox::of_points(&self.points, &self.perm[mid..end]);
        let lid = self.nodes.len();
        let rid = lid + 1;
        self.nodes.push(Node {
            start,
            end: mid,
            children: Vec::new(),
            parent: Some(l),
            level: level + 1,
            bbox: lb,
        });
        self.nodes.push(Node {
            start: mid,
            end,
            children: Vec::new(),
            parent: Some(l),
            level: level + 1,
            bbox: rb,
        });
        self.nodes[l].children = vec![lid, rid];
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        self.levels[level + 1].extend_from_slice(&[lid, rid]);
        // Keep the leaf list in ascending id order (what `from_parts`
        // rebuilds), so a mutated tree round-trips through serialization.
        self.leaves.retain(|&x| x != l);
        self.leaves.extend_from_slice(&[lid, rid]);
        self.leaves.sort_unstable();
        Some([lid, rid])
    }

    /// Heap bytes held by the tree (permutation + nodes + boxes + point copy).
    pub fn bytes(&self) -> usize {
        let d = self.points.dim();
        self.points.bytes()
            + self.perm.capacity() * std::mem::size_of::<usize>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.nodes.len() * (2 * d * std::mem::size_of::<f64>())
            + self.levels.iter().map(|l| l.capacity() * 8).sum::<usize>()
            + self.leaves.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_invariants(tree: &ClusterTree, n: usize, leaf_size: usize) {
        // Permutation property.
        let mut seen = vec![false; n];
        for &p in tree.perm() {
            assert!(!seen[p], "duplicate in permutation");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Root covers everything.
        let root = tree.node(tree.root());
        assert_eq!((root.start, root.end), (0, n));
        for (id, nd) in tree.nodes().iter().enumerate() {
            assert!(nd.start < nd.end, "empty node");
            if nd.is_leaf() {
                // A leaf either fits the budget or is geometrically degenerate.
                assert!(nd.len() <= leaf_size || nd.bbox.diameter() == 0.0);
            } else {
                assert_eq!(nd.children.len(), 2);
                let l = tree.node(nd.children[0]);
                let r = tree.node(nd.children[1]);
                assert_eq!(l.start, nd.start);
                assert_eq!(l.end, r.start);
                assert_eq!(r.end, nd.end);
                assert_eq!(l.parent, Some(id));
                assert_eq!(l.level, nd.level + 1);
            }
            // bbox contains all node points.
            for &pi in tree.node_indices(id) {
                assert!(nd.bbox.contains(tree.points().point(pi)));
            }
        }
        // Levels partition the nodes.
        let total: usize = tree.levels().iter().map(|l| l.len()).sum();
        assert_eq!(total, tree.node_count());
    }

    /// `nodes` with their ancestors, grouped by level: a root-closed set.
    fn closed_levels(tree: &ClusterTree, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut set = vec![false; tree.node_count()];
        for &node in nodes {
            let mut cur = Some(node);
            while let Some(c) = cur {
                set[c] = true;
                cur = tree.node(c).parent;
            }
        }
        let mut levels = vec![Vec::new(); tree.depth() + 1];
        for i in (0..tree.node_count()).filter(|&i| set[i]) {
            levels[tree.node(i).level].push(i);
        }
        levels
    }

    /// Cuts `levels` at `threads` and checks what every cut promises: each
    /// node of the set once, the cut roots one level of the set, every
    /// other subtree node after its parent in the same subtree, and
    /// `above` the levels over the cut. Returns the cut level's index and
    /// the cut.
    fn checked_cut(
        tree: &ClusterTree,
        levels: &[Vec<NodeId>],
        threads: usize,
    ) -> (usize, SubtreeCut) {
        let cut = tree.cut_subtrees(levels, threads);
        let roots: Vec<NodeId> = cut.subtrees.iter().map(|s| s[0]).collect();
        let at = levels
            .iter()
            .position(|l| *l == roots)
            .expect("roots are a level");
        assert_eq!(cut.above, levels[..at].concat());
        for subtree in &cut.subtrees {
            for (k, &i) in subtree.iter().enumerate().skip(1) {
                let parent = tree.node(i).parent.unwrap();
                assert!(subtree[..k].contains(&parent), "{i} before its parent");
            }
        }
        let mut all: Vec<NodeId> = cut.subtrees.concat();
        all.extend(&cut.above);
        let mut set = levels.concat();
        all.sort_unstable();
        set.sort_unstable();
        assert_eq!(all, set, "every node of the set once");
        (at, cut)
    }

    #[test]
    fn subtree_cuts_of_a_tree_of_paths_and_of_a_joined_node() {
        let pts = gen::uniform_cube(3000, 3, 9);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        assert!(tree.depth() >= 6, "setup: a deep tree");

        // A whole tree: the first level with 4 subtrees per thread.
        for (threads, level) in [(1, 2), (2, 3), (3, 4)] {
            let (at, cut) = checked_cut(&tree, tree.levels(), threads);
            assert_eq!((at, cut.subtrees.len()), (level, 1 << level), "{threads}");
        }

        // One path: one subtree from the root, at any width.
        let leaves = tree.leaves();
        let (first, last) = (leaves[0], leaves[leaves.len() - 1]);
        for threads in [1, 2, 3] {
            let (at, cut) = checked_cut(&tree, &closed_levels(&tree, &[first]), threads);
            assert_eq!((at, cut.subtrees.len()), (0, 1));
        }

        // Two paths that part at the root: one subtree each below it.
        let two = closed_levels(&tree, &[first, last]);
        let (at, cut) = checked_cut(&tree, &two, 2);
        assert_eq!((at, cut.above.clone()), (1, vec![tree.root()]));
        assert_eq!(cut.subtrees.len(), 2);
        assert_eq!(
            (cut.subtrees[0].last(), cut.subtrees[1].last()),
            (Some(&first), Some(&last))
        );

        // Two sibling leaves part only at their parent.
        let parent = tree.node(first).parent.unwrap();
        let sibling = tree.node(parent).children[1];
        let siblings = closed_levels(&tree, &[first, sibling]);
        let (at, cut) = checked_cut(&tree, &siblings, 2);
        assert_eq!((at, cut.subtrees.len()), (tree.node(first).level, 2));

        // The two paths joined by a node off them (an update re-factors one
        // whose interaction list gained a partner): it is a subtree of its
        // own at its level, the widest of the set.
        let joined = tree.levels()[2]
            .iter()
            .copied()
            .find(|&i| !two[2].contains(&i))
            .unwrap();
        let three = closed_levels(&tree, &[first, last, joined]);
        let (at, cut) = checked_cut(&tree, &three, 2);
        assert_eq!((at, cut.above.len()), (2, 3));
        assert!(cut.subtrees.contains(&vec![joined]));
        assert_eq!(cut.subtrees.len(), 3);

        // Nothing to cut.
        assert_eq!(tree.cut_subtrees(&[], 2), SubtreeCut::default());
    }

    #[test]
    #[should_panic(expected = "not root-closed")]
    fn a_subtree_cut_needs_every_parent() {
        let pts = gen::uniform_cube(500, 3, 1);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let mut levels = closed_levels(&tree, &[tree.leaves()[0]]);
        levels[1].clear();
        tree.cut_subtrees(&levels, 2);
    }

    #[test]
    fn build_on_cube() {
        let pts = gen::uniform_cube(500, 3, 1);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        check_invariants(&tree, 500, 32);
        assert!(tree.depth() >= 3);
    }

    #[test]
    fn build_on_sphere_and_dino() {
        for pts in [gen::sphere_surface(400, 3, 2), gen::dino(400, 3)] {
            let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(25));
            check_invariants(&tree, 400, 25);
        }
    }

    #[test]
    fn build_high_dim() {
        let pts = gen::uniform_cube(300, 6, 4);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(40));
        check_invariants(&tree, 300, 40);
    }

    #[test]
    fn single_point_tree() {
        let pts = PointSet::new(2, vec![0.5, 0.5]);
        let tree = ClusterTree::build(&pts, TreeParams::default());
        assert_eq!(tree.node_count(), 1);
        assert!(tree.node(0).is_leaf());
    }

    #[test]
    fn identical_points_terminate() {
        // All points coincide: the degenerate box cannot be split; must not
        // recurse forever.
        let pts = PointSet::from_fn(100, 2, |_, _| 0.25);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(10));
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn balanced_depth() {
        let pts = gen::uniform_cube(1 << 12, 2, 5);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
        // Median splits: depth should be close to log2(n / leaf).
        let expect = ((1 << 12) as f64 / 64.0).log2().ceil() as usize;
        assert!(
            tree.depth() <= expect + 1,
            "depth {} too deep",
            tree.depth()
        );
    }

    #[test]
    fn leaves_cover_all_points() {
        let pts = gen::uniform_cube(777, 3, 6);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(50));
        let covered: usize = tree.leaves().iter().map(|&l| tree.node(l).len()).sum();
        assert_eq!(covered, 777);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let pts = gen::uniform_cube(300, 3, 9);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let rebuilt = ClusterTree::from_parts(
            tree.points().clone(),
            tree.perm().to_vec(),
            tree.nodes().to_vec(),
        )
        .expect("valid parts must reassemble");
        check_invariants(&rebuilt, 300, 32);
        assert_eq!(rebuilt.levels(), tree.levels());
        assert_eq!(rebuilt.leaves(), tree.leaves());

        // Tampered parts must be rejected, not panic.
        let mut bad_perm = tree.perm().to_vec();
        bad_perm[0] = bad_perm[1];
        assert!(
            ClusterTree::from_parts(tree.points().clone(), bad_perm, tree.nodes().to_vec())
                .is_err()
        );
        let mut bad_nodes = tree.nodes().to_vec();
        bad_nodes[1].end = bad_nodes[1].end.wrapping_sub(1);
        assert!(
            ClusterTree::from_parts(tree.points().clone(), tree.perm().to_vec(), bad_nodes)
                .is_err()
        );
        let mut orphan = tree.nodes().to_vec();
        orphan[2].parent = None;
        assert!(
            ClusterTree::from_parts(tree.points().clone(), tree.perm().to_vec(), orphan).is_err()
        );
    }

    /// Invariant check that tolerates mutation artifacts: boxes may be
    /// loose supersets and leaves may exceed the build-time budget.
    fn check_mutated(tree: &ClusterTree) {
        let n = tree.points().len();
        let mut seen = vec![false; n];
        for &p in tree.perm() {
            assert!(p < n && !seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let root = tree.node(tree.root());
        assert_eq!((root.start, root.end), (0, n));
        for (id, nd) in tree.nodes().iter().enumerate() {
            assert!(nd.start < nd.end, "node {id} empty");
            for &pi in tree.node_indices(id) {
                assert!(nd.bbox.contains(tree.points().point(pi)));
            }
            if !nd.is_leaf() {
                let mut pos = nd.start;
                for &c in &nd.children {
                    assert!(c > id);
                    assert_eq!(tree.node(c).start, pos);
                    assert_eq!(tree.node(c).level, nd.level + 1);
                    pos = tree.node(c).end;
                }
                assert_eq!(pos, nd.end);
            }
        }
        // Mutated trees must still round-trip through from_parts.
        let rt = ClusterTree::from_parts(
            tree.points().clone(),
            tree.perm().to_vec(),
            tree.nodes().to_vec(),
        )
        .expect("mutated tree must stay from_parts-valid");
        assert_eq!(rt.leaves(), tree.leaves());
        assert_eq!(rt.levels(), tree.levels());
    }

    #[test]
    fn insert_point_splices_into_routed_leaf() {
        let pts = gen::uniform_cube(300, 3, 10);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let p = [0.31, 0.62, 0.93];
        let expect = tree.route_point(&p);
        let before = tree.node(expect).len();
        let (leaf, g) = tree.insert_point(&p);
        assert_eq!(leaf, expect);
        assert_eq!(g, 300);
        assert_eq!(tree.points().len(), 301);
        assert_eq!(tree.node(leaf).len(), before + 1);
        assert!(tree.node_indices(leaf).contains(&g));
        assert!(tree.node(leaf).bbox.contains(&p));
        check_mutated(&tree);
    }

    #[test]
    fn insert_outside_root_box_expands_path() {
        let pts = gen::uniform_cube(200, 2, 11);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let p = [5.0, -3.0]; // far outside the unit cube
        let (leaf, g) = tree.insert_point(&p);
        assert!(tree.node(tree.root()).bbox.contains(&p));
        assert!(tree.node(leaf).bbox.contains(&p));
        assert!(tree.node_indices(leaf).contains(&g));
        check_mutated(&tree);
    }

    #[test]
    fn remove_point_renumbers_and_compacts() {
        let pts = gen::uniform_cube(250, 3, 12);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let victim = 100;
        let kept: Vec<f64> = tree.points().point(200).to_vec();
        tree.remove_point(victim).unwrap();
        assert_eq!(tree.points().len(), 249);
        assert_eq!(tree.perm().len(), 249);
        // Point 200 became 199 and kept its coordinates.
        assert_eq!(tree.points().point(199), &kept[..]);
        check_mutated(&tree);
    }

    #[test]
    fn remove_refuses_to_empty_a_leaf() {
        let pts = gen::uniform_cube(200, 2, 13);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(16));
        // Drain one leaf down to a single point, then expect a refusal.
        let leaf = tree.leaves()[0];
        while tree.node(leaf).len() > 1 {
            let g = tree.node_indices(leaf)[0];
            tree.remove_point(g).unwrap();
        }
        let last = tree.node_indices(leaf)[0];
        assert!(tree.remove_point(last).is_err());
        assert_eq!(tree.node(leaf).len(), 1, "failed removal must not mutate");
        check_mutated(&tree);
    }

    #[test]
    fn split_leaf_appends_tiling_children() {
        let pts = gen::uniform_cube(300, 3, 14);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
        let leaf = *tree
            .leaves()
            .iter()
            .max_by_key(|&&l| tree.node(l).len())
            .unwrap();
        let count = tree.node_count();
        let [a, b] = tree.split_leaf(leaf).unwrap();
        assert_eq!((a, b), (count, count + 1));
        assert!(!tree.node(leaf).is_leaf());
        assert_eq!(
            tree.node(a).len() + tree.node(b).len(),
            tree.node(leaf).len()
        );
        assert!(!tree.leaves().contains(&leaf));
        assert!(tree.leaves().contains(&a) && tree.leaves().contains(&b));
        check_mutated(&tree);
    }

    #[test]
    fn split_degenerate_leaf_refused() {
        let pts = PointSet::from_fn(30, 2, |_, _| 0.5);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(8));
        assert_eq!(tree.node_count(), 1);
        assert!(tree.split_leaf(0).is_none());
    }

    #[test]
    fn insert_remove_round_trip_preserves_structure() {
        let pts = gen::uniform_cube(400, 2, 15);
        let mut tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let perm0 = tree.perm().to_vec();
        let (_, g) = tree.insert_point(&[0.4, 0.6]);
        tree.remove_point(g).unwrap();
        assert_eq!(tree.perm(), &perm0[..]);
        assert_eq!(tree.points().len(), 400);
        check_mutated(&tree);
    }

    #[test]
    fn cut_tiles_the_point_range_at_every_level() {
        let pts = gen::uniform_cube(700, 3, 1);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        for level in 0..=tree.depth() {
            let mut pos = 0;
            for &c in &tree.cut_at_level(level) {
                assert_eq!(tree.node(c).start, pos, "gap before cut node {c}");
                pos = tree.node(c).end;
            }
            assert_eq!(pos, 700, "cut does not cover the range");
        }
        assert_eq!(tree.level_with_cut(1), Some(0));
        assert_eq!(tree.level_with_cut(8), Some(3));
        assert_eq!(tree.level_with_cut(tree.leaves().len() + 1), None);
    }

    #[test]
    fn node_points_match_indices() {
        let pts = gen::uniform_cube(64, 2, 8);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(16));
        let leaf = tree.leaves()[0];
        let np = tree.node_points(leaf);
        for (k, &pi) in tree.node_indices(leaf).iter().enumerate() {
            assert_eq!(np.point(k), tree.points().point(pi));
        }
    }
}
