//! Incremental operator updates: point insert/delete with path-local
//! re-sampling and re-factorization, a re-planned block table, and
//! escalation to leaf splits or full rebuilds.
//!
//! ## Why a root-to-leaf path suffices
//!
//! The data-driven construction nests its skeletons: a leaf's row
//! candidates are its own points, an internal node's are its children's
//! skeletons. A point therefore appears in the factorization inputs of
//! exactly the nodes on its leaf's root-to-leaf **path** — inserting or
//! removing it leaves every off-path row ID's inputs bit-identical. The
//! update engine therefore runs construction's own three steps — the
//! Algorithm-1 sweep ([`h2_sampling::sample_levels`]), the nested-skeleton
//! pass (`builders::nested_skeleton_pass`, data-driven rule) and block
//! generation — over that path and the pairs with an endpoint on it,
//! instead of over every node and pair. (Refactoring *every* node of a
//! fresh operator reproduces it bit for bit; a unit test below pins that.)
//! A node off the paths whose interaction list gains a partner (a grown
//! box turned a pair admissible) joins them, with its ancestors: its `Y*`
//! must cover the new partner's points. Other off-path nodes keep their
//! bases; the drift this induces in *their* farfield surrogates is the
//! staleness the [`UpdatePolicy`] bounds, escalating to a local leaf split
//! (overflow) or a full from-scratch rebuild (underflow, accumulated
//! churn).
//!
//! ## Epochs
//!
//! Every applied batch bumps the operator [`epoch`](crate::H2MatrixS::epoch)
//! and stamps the re-factored nodes' entries in the per-node epoch table.
//! The block table holds every block under the pair epoch
//! `max(node_epochs[i], node_epochs[j])` it was generated at and serves it
//! to a read at that epoch only, so a block held before an update can
//! never satisfy a post-update fetch. The epoch is the fault detector, not
//! the invalidation mechanism: an update runs one successor plan over the
//! new lists (`H2MatrixS::plan_table`) and installs a new table that shares
//! the blocks still current and generates the rest, in either memory mode.
//! Lists that stand keep every block at its slot; relisted pairs find their
//! old slot by binary search of the old list.

use crate::builders::{build_with_x_star, data_driven, nested_skeleton_pass};
use crate::cache::CacheBudget;
use crate::config::{BasisMethod, BuilderStrategy, H2Config, MemoryMode};
use crate::h2matrix::{listed_blocks, H2MatrixS};
use crate::proxy::ProxyPoints;
use h2_linalg::{BasisMatrix, Scalar};
use h2_points::admissibility::build_block_lists;
use h2_points::{NodeId, PointSet};
use h2_sampling::{refresh_x_star, sample_levels, SampleParams};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Staleness and escalation policy of the incremental update engine.
#[derive(Clone, Debug)]
pub struct UpdatePolicy {
    /// Target relative tolerance of path re-factorizations: drives the
    /// sampling budgets and the row-ID truncation exactly as
    /// [`BasisMethod::data_driven_for_tol`] does.
    pub tol: f64,
    /// A leaf holding more than this many points after inserts is split in
    /// place (`None` = twice the largest leaf observed when updates start).
    pub max_leaf_points: Option<usize>,
    /// Accumulated inserts + removes (since construction or the last
    /// rebuild) beyond this fraction of `n` escalate the next update to a
    /// full from-scratch rebuild — the backstop on off-path drift. The
    /// rebuild factors with the update engine's own rule (anchor-net
    /// sampling at [`Self::tol`]) whatever built the operator: a sketched
    /// operator comes out of it with `provenance()` = `anchor-net`.
    pub rebuild_churn: f64,
}

impl Default for UpdatePolicy {
    fn default() -> Self {
        UpdatePolicy {
            tol: 1e-6,
            max_leaf_points: None,
            rebuild_churn: 0.25,
        }
    }
}

/// What one applied update batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Points inserted by this batch.
    pub inserted: usize,
    /// Points removed by this batch.
    pub removed: usize,
    /// Distinct root-to-leaf path nodes re-factored (~`O(depth)` per
    /// point; 0 when the batch escalated to a rebuild).
    pub path_nodes: usize,
    /// Listed pairs whose block changed: an endpoint was re-factored, or
    /// the pair is newly listed. The table regenerates the ones it holds.
    pub refactored_blocks: usize,
    /// Leaves split because they overflowed the policy bound.
    pub splits: usize,
    /// 1 when the batch escalated to a full from-scratch rebuild.
    pub rebuilds: usize,
    /// The operator epoch after this batch.
    pub epoch: u64,
}

/// A typed failure of [`H2MatrixS::insert_points`] /
/// [`H2MatrixS::remove_points`]. Errors are returned before any mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The operator's proxies are stored coordinates (interpolation
    /// grids); path re-factorization requires data-point skeletons
    /// (data-driven or sketched construction).
    CoordProxies,
    /// An inserted point's dimension does not match the operator's.
    DimMismatch {
        /// The operator's spatial dimension.
        expected: usize,
        /// The offending point's dimension.
        got: usize,
    },
    /// A removal index is out of range.
    OutOfRange(usize),
    /// The removal batch would leave the operator empty.
    WouldEmpty,
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::CoordProxies => write!(
                f,
                "operator stores coordinate proxies; only data-point skeletons are updatable"
            ),
            UpdateError::DimMismatch { expected, got } => {
                write!(f, "point dimension {got} != operator dimension {expected}")
            }
            UpdateError::OutOfRange(g) => write!(f, "point index {g} out of range"),
            UpdateError::WouldEmpty => write!(f, "removal would empty the operator"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Update bookkeeping carried on a mutable operator: the resolved policy,
/// the sampling parameters the path refreshes reuse, and the maintained
/// bottom-up surrogate table `X*` (seeded by one full upward sweep the
/// first time the operator is updated).
#[derive(Clone, Debug)]
pub(crate) struct UpdateState {
    pub(crate) policy: UpdatePolicy,
    pub(crate) params: SampleParams,
    pub(crate) id_tol: f64,
    /// Resolved leaf-overflow bound (policy value or the 2x-observed auto).
    pub(crate) max_leaf: usize,
    /// Leaf size a full-rebuild escalation builds with.
    pub(crate) leaf_size: usize,
    /// Maintained `X_i*` table, kept equal to a from-scratch upward sweep
    /// over the current tree (path refreshes are exact — see
    /// [`h2_sampling::refresh_x_star`]).
    pub(crate) x_star: Vec<Vec<usize>>,
    /// Inserts + removes since construction or the last rebuild.
    pub(crate) churn: usize,
    /// A box grew or a leaf split since the lists were built: the next
    /// re-factorization rebuilds them.
    pub(crate) relist: bool,
}

impl<S: Scalar> H2MatrixS<S> {
    /// Sets the update policy, (re)initializing the update state. Call
    /// before the first update to override the defaults; calling later
    /// re-resolves the leaf bound and re-seeds the surrogate table under
    /// the new tolerance.
    pub fn set_update_policy(&mut self, policy: UpdatePolicy) -> Result<(), UpdateError> {
        self.check_updatable()?;
        self.update = Some(self.fresh_state(policy));
        Ok(())
    }

    /// Inserts `pts` (original-order indices `n..n + pts.len()`),
    /// re-sampling and re-factoring only the affected root-to-leaf paths.
    /// Bumps the operator epoch; see [`UpdateReport`] for what was touched.
    pub fn insert_points(&mut self, pts: &PointSet) -> Result<UpdateReport, UpdateError> {
        if pts.dim() != self.dim() {
            return Err(UpdateError::DimMismatch {
                expected: self.dim(),
                got: pts.dim(),
            });
        }
        self.check_updatable()?;
        if pts.is_empty() {
            return Ok(UpdateReport {
                epoch: self.epoch,
                ..UpdateReport::default()
            });
        }
        self.ensure_state();
        let _sp = h2_telemetry::span("update.apply");
        let state = self.update.as_ref().expect("state initialized");
        if state.churn + pts.len() > (state.policy.rebuild_churn * self.n() as f64) as usize {
            let mut points = self.tree.points().clone();
            for p in pts.iter() {
                points.push(p);
            }
            return Ok(self.rebuild_from_points(points, pts.len(), 0));
        }
        let max_leaf = state.max_leaf;
        let mut touched: HashSet<NodeId> = HashSet::new();
        let (mut splits, mut grew) = (0, false);
        for p in pts.iter() {
            // The leaf `insert_point` routes to; its path's boxes grow only
            // for a point outside them.
            let routed = self.tree.route_point(p);
            grew |= !self
                .path(routed)
                .all(|c| self.tree.node(c).bbox.contains(p));
            let (leaf, _g) = self.tree.insert_point(p);
            if self.tree.node(leaf).len() > max_leaf {
                if let Some([a, b]) = self.tree.split_leaf(leaf) {
                    splits += 1;
                    self.grow_node_arrays();
                    touched.insert(a);
                    touched.insert(b);
                }
            }
            self.touch_path(&mut touched, leaf);
        }
        let state = self.update.as_mut().expect("state initialized");
        state.relist |= grew || splits > 0;
        Ok(self.refactor_paths(touched, splits, pts.len(), 0))
    }

    /// Removes the points with the given original-order indices (remaining
    /// points are renumbered downward, exactly like `Vec::remove`),
    /// re-factoring only the affected paths. A removal that would empty a
    /// leaf escalates the whole batch to a full rebuild.
    pub fn remove_points(&mut self, ids: &[usize]) -> Result<UpdateReport, UpdateError> {
        self.check_updatable()?;
        let n = self.n();
        let mut sorted: Vec<usize> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&g) = sorted.iter().find(|&&g| g >= n) {
            return Err(UpdateError::OutOfRange(g));
        }
        if sorted.len() >= n {
            return Err(UpdateError::WouldEmpty);
        }
        if sorted.is_empty() {
            return Ok(UpdateReport {
                epoch: self.epoch,
                ..UpdateReport::default()
            });
        }
        self.ensure_state();
        let _sp = h2_telemetry::span("update.apply");
        let state = self.update.as_ref().expect("state initialized");
        // Escalate to a rebuild when the drift budget is exhausted or any
        // leaf would underflow to zero points.
        let mut per_leaf: HashMap<NodeId, usize> = HashMap::new();
        for &g in &sorted {
            let pos = self.tree.position_of(g).expect("id in range");
            *per_leaf.entry(self.tree.leaf_at(pos)).or_insert(0) += 1;
        }
        let underflow = per_leaf.iter().any(|(&l, &k)| k >= self.tree.node(l).len());
        if underflow
            || state.churn + sorted.len() > (state.policy.rebuild_churn * n as f64) as usize
        {
            let mut points = self.tree.points().clone();
            for &g in sorted.iter().rev() {
                points.remove(g);
            }
            return Ok(self.rebuild_from_points(points, 0, sorted.len()));
        }
        let mut touched: HashSet<NodeId> = HashSet::new();
        // Descending order: removing `g` renumbers only ids above it, so
        // the remaining (smaller) batch ids stay valid.
        for &g in sorted.iter().rev() {
            let leaf = self
                .tree
                .remove_point(g)
                .expect("underflow pre-checked above");
            self.renumber_after_remove(g);
            self.touch_path(&mut touched, leaf);
        }
        Ok(self.refactor_paths(touched, 0, 0, sorted.len()))
    }

    /// `node` and its ancestors, up to the root.
    fn path(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(node), |&c| self.tree.node(c).parent)
    }

    /// Adds `node` and its ancestors to `touched`.
    fn touch_path(&self, touched: &mut HashSet<NodeId>, node: NodeId) {
        touched.extend(self.path(node));
    }

    /// Whether a touched internal node's diameter equals another internal
    /// node's bit for bit. `build_block_lists` breaks such a tie by point
    /// count, which every touched node's may have changed; nothing else it
    /// reads changes unless a box grows or a leaf splits.
    fn diameter_tie(&self, touched: &HashSet<NodeId>) -> bool {
        let tree = &self.tree;
        let internal = |i: &NodeId| !tree.node(*i).is_leaf();
        let diameter = |i: NodeId| tree.node(i).bbox.diameter().to_bits();
        let mine: Vec<(NodeId, u64)> = touched
            .iter()
            .filter(|i| internal(i))
            .map(|&i| (i, diameter(i)))
            .collect();
        let other = (0..tree.node_count()).filter(internal);
        other
            .map(|j| (j, diameter(j)))
            .any(|(j, d)| mine.iter().any(|&(i, e)| i != j && e == d))
    }

    fn check_updatable(&self) -> Result<(), UpdateError> {
        if self
            .proxies
            .iter()
            .any(|p| matches!(p, ProxyPoints::Coords(_)))
        {
            return Err(UpdateError::CoordProxies);
        }
        Ok(())
    }

    fn ensure_state(&mut self) {
        if self.update.is_none() {
            self.update = Some(self.fresh_state(UpdatePolicy::default()));
        }
    }

    fn fresh_state(&self, policy: UpdatePolicy) -> UpdateState {
        let params = SampleParams::for_tolerance(policy.tol, self.dim());
        let id_tol = policy.tol * 0.1;
        let leaf_size = self
            .tree
            .leaves()
            .iter()
            .map(|&l| self.tree.node(l).len())
            .max()
            .unwrap_or(1);
        let max_leaf = policy.max_leaf_points.unwrap_or(2 * leaf_size).max(2);
        let mut x_star = vec![Vec::new(); self.tree.node_count()];
        refresh_x_star(&self.tree, &params, self.tree.levels(), &mut x_star);
        UpdateState {
            policy,
            params,
            id_tol,
            max_leaf,
            leaf_size,
            x_star,
            churn: 0,
            relist: false,
        }
    }

    /// Extends the per-node arrays after `split_leaf` appended children.
    /// The new entries are placeholders; the caller puts the children on
    /// the re-factor path, which fills them in.
    fn grow_node_arrays(&mut self) {
        let n_nodes = self.tree.node_count();
        self.bases.resize(n_nodes, BasisMatrix::default());
        self.transfers.resize(n_nodes, BasisMatrix::default());
        self.proxies
            .resize(n_nodes, ProxyPoints::Indices(Vec::new()));
        self.ranks.resize(n_nodes, 0);
        self.node_epochs.resize(n_nodes, self.epoch);
        if let Some(state) = self.update.as_mut() {
            state.x_star.resize(n_nodes, Vec::new());
        }
    }

    /// Renumbers every stored global point index after the removal of `g`:
    /// indices above `g` shift down by one (mirroring the tree's own
    /// permutation renumber), and `g` itself is dropped — it can only
    /// appear in path-node lists, which the caller re-factors before use.
    fn renumber_after_remove(&mut self, g: usize) {
        let fix = |v: &mut Vec<usize>| {
            v.retain(|&s| s != g);
            for s in v.iter_mut() {
                if *s > g {
                    *s -= 1;
                }
            }
        };
        for p in &mut self.proxies {
            if let ProxyPoints::Indices(v) = p {
                fix(v);
            }
        }
        if let Some(state) = self.update.as_mut() {
            for v in &mut state.x_star {
                fix(v);
            }
        }
    }

    /// The core path re-factorization — construction restricted to the
    /// (root-closed) touched set: one Algorithm-1 sweep refreshes `X*` in
    /// place and recomputes `Y*` along it, one nested-skeleton pass redoes
    /// its row IDs with the data-driven rule; then the epoch is bumped and
    /// the block table re-planned, which regenerates the held blocks with a
    /// dirty endpoint.
    ///
    /// The lists are rebuilt only when a box grew, a leaf split or a
    /// diameter tie makes a changed point count matter
    /// ([`Self::diameter_tie`]); otherwise they stand as they are, shared
    /// by the operator and its tables.
    fn refactor_paths(
        &mut self,
        mut touched: HashSet<NodeId>,
        splits: usize,
        inserted: usize,
        removed: usize,
    ) -> UpdateReport {
        let mut state = self.update.take().expect("state initialized");
        state.churn += inserted + removed;
        let sp = h2_telemetry::span("update.resample");
        let relist = std::mem::take(&mut state.relist) || self.diameter_tie(&touched);
        let new_lists = relist.then(|| build_block_lists(&self.tree, self.lists.eta));
        // A grown box can give a node off the paths a new interaction
        // partner, whose points its `Y*` never sampled: that node is
        // re-factored too, with its ancestors, whose candidates nest its
        // skeleton.
        for (i, list) in new_lists
            .iter()
            .flat_map(|l| l.interaction.iter().enumerate())
        {
            let old = self.lists.interaction.get(i).map_or(&[][..], Vec::as_slice);
            if list.iter().any(|j| !old.contains(j)) {
                self.touch_path(&mut touched, i);
            }
        }
        // Within a level the order is the set's iteration order; the sweep
        // and the pass do not depend on it.
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); self.tree.depth() + 1];
        for &i in &touched {
            levels[self.tree.node(i).level].push(i);
        }
        let lists = new_lists.as_ref().unwrap_or(&*self.lists);
        let y_star = sample_levels(&self.tree, lists, &state.params, &levels, &mut state.x_star);
        drop(sp);

        let sp = h2_telemetry::span("update.refactor");
        let kernel = self.kernel.clone();
        let rule = data_driven::factor(kernel.as_ref(), &y_star, state.id_tol);
        nested_skeleton_pass(self, &levels, "build.id", rule, drop);
        drop(sp);

        // The blocks that changed: a dirty endpoint, or a pair a split or
        // an admissibility change from a grown box newly listed.
        let sp = h2_telemetry::span("update.blocks");
        let mut dirty = vec![false; self.tree.node_count()];
        for &i in &touched {
            dirty[i] = true;
        }
        let lists = new_lists.as_ref().unwrap_or(&*self.lists);
        // Whether the pair was listed before: the table is on the old lists.
        let listed = |kind, i, j| new_lists.is_none() || self.table.slot(kind, i, j).is_some();
        let stale = listed_blocks(lists)
            .filter(|&(kind, i, j)| dirty[i] || dirty[j] || !listed(kind, i, j))
            .count();
        self.epoch += 1;
        for &i in &touched {
            self.node_epochs[i] = self.epoch;
        }
        if let Some(lists) = new_lists {
            self.lists = Arc::new(lists);
        }
        // Residency is a function of (operator, budget): one successor plan
        // over the lists carries the held blocks still current by `Arc`
        // and generates the planned rest, so whoever shares the old table
        // keeps the blocks they started with.
        let next = self.plan_table(&self.table, self.table.budget());
        self.table = Arc::new(next);
        drop(sp);

        h2_telemetry::counter_add!("update.path_nodes", touched.len() as u64);
        h2_telemetry::counter_add!("update.refactored_blocks", stale as u64);
        let report = UpdateReport {
            inserted,
            removed,
            path_nodes: touched.len(),
            refactored_blocks: stale,
            splits,
            rebuilds: 0,
            epoch: self.epoch,
        };
        self.update = Some(state);
        report
    }

    /// Full from-scratch escalation: rebuild over `points` with the update
    /// tolerance, carry the epoch forward (every node stamped with the new
    /// epoch), and plan the table under the old byte budget.
    ///
    /// The rebuild is a data-driven (anchor-net) construction — the one rule
    /// the update engine factors with — so an operator that was built
    /// sketched reports `provenance()` = `anchor-net` from here on.
    fn rebuild_from_points(
        &mut self,
        points: PointSet,
        inserted: usize,
        removed: usize,
    ) -> UpdateReport {
        let sp = h2_telemetry::span("update.rebuild");
        let state = self.update.take().expect("state initialized");
        let cfg = H2Config {
            basis: BasisMethod::DataDriven {
                samples: state.params,
                id_tol: state.id_tol,
            },
            builder: BuilderStrategy::AnchorNet,
            seed: 0,
            // Generators only: the table is planned below, at the new epoch.
            mode: MemoryMode::OnTheFly,
            leaf_size: state.leaf_size,
            eta: self.lists.eta,
            cache_budget: CacheBudget::Off,
        };
        let budget = self.table.budget();
        let epoch = self.epoch + 1;
        let (rebuilt, x_star) = build_with_x_star::<S>(&points, self.kernel.clone(), &cfg);
        let node_epochs = vec![epoch; rebuilt.tree.node_count()];
        *self = H2MatrixS {
            epoch,
            node_epochs,
            ..rebuilt
        };
        self.table = Arc::new(self.plan_table(&self.table, budget));
        self.update = Some(UpdateState {
            x_star: x_star.expect("a data-driven build samples"),
            churn: 0,
            relist: false,
            ..state
        });
        drop(sp);
        h2_telemetry::counter_add!("update.rebuilds", 1);
        UpdateReport {
            inserted,
            removed,
            path_nodes: 0,
            refactored_blocks: 0,
            splits: 0,
            rebuilds: 1,
            epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, H2Config, MemoryMode};
    use crate::error_est::probe_vector;
    use crate::h2matrix::H2Matrix;
    use h2_kernels::{dense_matvec, Coulomb};
    use h2_points::gen;
    use std::sync::Arc;

    fn build(n: usize, mode: MemoryMode, seed: u64) -> H2Matrix {
        let pts = gen::uniform_cube(n, 3, seed);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    }

    fn check_accuracy(h2: &H2Matrix, tol: f64) {
        let n = h2.n();
        let b = probe_vector(n, 77);
        let y = h2.matvec(&b);
        let z = dense_matvec(&Coulomb, h2.tree().points(), &b);
        let err = h2_linalg::vec_ops::rel_err(&y, &z);
        assert!(err < tol, "relative error {err} after update");
    }

    #[test]
    fn refactoring_every_node_reproduces_the_fresh_build() {
        // A build is the update that touches every node: same sweep, same
        // pass, same block generation. With the update tolerance equal to
        // the build tolerance (and the default seed 0), re-factoring all
        // nodes must leave the operator bit for bit as it was built.
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let fresh = build(900, mode, 5);
            let mut h2 = fresh.clone();
            h2.set_update_policy(UpdatePolicy {
                tol: 1e-6,
                ..UpdatePolicy::default()
            })
            .unwrap();
            let every_node: HashSet<NodeId> = (0..h2.tree().node_count()).collect();
            let r = h2.refactor_paths(every_node, 0, 0, 0);
            assert_eq!(r.path_nodes, h2.tree().node_count());
            let listed = h2.lists().interaction_pairs.len() + h2.lists().nearfield_pairs.len();
            assert_eq!(r.refactored_blocks, listed, "{mode:?}");

            let (a, b) = (fresh.to_parts(), h2.to_parts());
            assert_eq!(a.ranks, b.ranks, "{mode:?}");
            let skeletons = |p: &[ProxyPoints]| -> Vec<Vec<usize>> {
                p.iter()
                    .map(|p| match p {
                        ProxyPoints::Indices(v) => v.clone(),
                        ProxyPoints::Coords(_) => panic!("data-driven proxies are skeletons"),
                    })
                    .collect()
            };
            assert_eq!(skeletons(&a.proxies), skeletons(&b.proxies), "{mode:?}");
            assert!(a.bases == b.bases, "{mode:?}: bases");
            assert!(a.transfers == b.transfers, "{mode:?}: transfers");
            let x = probe_vector(900, 21);
            assert_eq!(fresh.matvec(&x), h2.matvec(&x), "{mode:?}: matvec");
        }
    }

    #[test]
    fn insert_refactors_a_path_and_stays_accurate() {
        let mut h2 = build(900, MemoryMode::Normal, 5);
        let mut pts = PointSet::new(3, vec![]);
        pts.push(&[0.31, 0.52, 0.18]);
        pts.push(&[0.77, 0.21, 0.64]);
        let r = h2.insert_points(&pts).unwrap();
        assert_eq!((r.inserted, r.removed, r.rebuilds), (2, 0, 0));
        assert_eq!(r.epoch, 1);
        assert_eq!(h2.epoch(), 1);
        assert_eq!(h2.n(), 902);
        // ~O(log n) locality: two paths in a depth-d tree touch at most
        // 2(d+1) nodes.
        let depth = h2.tree().depth();
        assert!(
            r.path_nodes <= 2 * (depth + 1),
            "path_nodes {} vs depth {depth}",
            r.path_nodes
        );
        assert!(r.refactored_blocks > 0);
        check_accuracy(&h2, 1e-4);
    }

    #[test]
    fn remove_refactors_a_path_and_stays_accurate() {
        let mut h2 = build(900, MemoryMode::Normal, 6);
        let r = h2.remove_points(&[13, 400, 871]).unwrap();
        assert_eq!((r.inserted, r.removed, r.rebuilds), (0, 3, 0));
        assert_eq!(h2.n(), 897);
        assert_eq!(h2.epoch(), 1);
        // ~O(log n) locality: three paths touch at most 3(d+1) nodes.
        let depth = h2.tree().depth();
        assert!(
            r.path_nodes <= 3 * (depth + 1),
            "path_nodes {} vs depth {depth}",
            r.path_nodes
        );
        check_accuracy(&h2, 1e-4);
        // Every stored skeleton index must still be in range.
        for i in 0..h2.tree().node_count() {
            if let ProxyPoints::Indices(v) = h2.proxy(i) {
                assert!(v.iter().all(|&s| s < h2.n()), "node {i}");
            }
        }
    }

    #[test]
    fn updated_otf_matches_dense_too() {
        let mut h2 = build(700, MemoryMode::OnTheFly, 7);
        let mut pts = PointSet::new(3, vec![]);
        for k in 0..4 {
            let t = 0.1 + 0.2 * k as f64;
            pts.push(&[t, 1.0 - t, 0.5 * t]);
        }
        h2.insert_points(&pts).unwrap();
        h2.remove_points(&[5, 6]).unwrap();
        assert_eq!(h2.epoch(), 2);
        check_accuracy(&h2, 1e-4);
    }

    #[test]
    fn update_sequence_matches_fresh_rebuild_to_tolerance() {
        // Equivalence by accuracy: after a mixed update sequence, the
        // incrementally maintained operator and a from-scratch build over
        // the same final point set both reproduce the dense matvec.
        let mut h2 = build(800, MemoryMode::Normal, 8);
        let mut pts = PointSet::new(3, vec![]);
        pts.push(&[0.11, 0.91, 0.41]);
        pts.push(&[0.62, 0.07, 0.83]);
        pts.push(&[0.48, 0.48, 0.52]);
        h2.insert_points(&pts).unwrap();
        h2.remove_points(&[100, 500]).unwrap();
        let fresh = {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode: MemoryMode::Normal,
                leaf_size: 48,
                eta: 0.7,
                ..H2Config::default()
            };
            H2Matrix::build(h2.tree().points(), Arc::new(Coulomb), &cfg)
        };
        let b = probe_vector(h2.n(), 9);
        let yu = h2.matvec(&b);
        let yf = fresh.matvec(&b);
        let z = dense_matvec(&Coulomb, h2.tree().points(), &b);
        let eu = h2_linalg::vec_ops::rel_err(&yu, &z);
        let ef = h2_linalg::vec_ops::rel_err(&yf, &z);
        assert!(eu < 1e-4, "updated error {eu}");
        assert!(ef < 1e-4, "fresh error {ef}");
        assert!(
            h2_linalg::vec_ops::rel_err(&yu, &yf) < 1e-4,
            "updated vs fresh diverge"
        );
    }

    #[test]
    fn leaf_overflow_splits_in_place() {
        let mut h2 = build(600, MemoryMode::Normal, 10);
        h2.set_update_policy(UpdatePolicy {
            max_leaf_points: Some(
                h2.tree()
                    .leaves()
                    .iter()
                    .map(|&l| h2.tree().node(l).len())
                    .max()
                    .unwrap(),
            ),
            ..UpdatePolicy::default()
        })
        .unwrap();
        // Hammer one spot until some leaf overflows and splits.
        let mut splits = 0;
        for k in 0..40 {
            let e = 1e-4 * k as f64;
            let mut p = PointSet::new(3, vec![]);
            p.push(&[0.5 + e, 0.5 - e, 0.5 + 2.0 * e]);
            splits += h2.insert_points(&p).unwrap().splits;
            if splits > 0 {
                break;
            }
        }
        assert!(splits > 0, "no leaf ever split");
        check_accuracy(&h2, 1e-4);
    }

    #[test]
    fn churn_past_policy_triggers_full_rebuild() {
        let mut h2 = build(300, MemoryMode::Normal, 11);
        h2.set_update_policy(UpdatePolicy {
            rebuild_churn: 0.01,
            ..UpdatePolicy::default()
        })
        .unwrap();
        let mut pts = PointSet::new(3, vec![]);
        for k in 0..10 {
            pts.push(&[0.1 + 0.05 * k as f64, 0.3, 0.7]);
        }
        let r = h2.insert_points(&pts).unwrap();
        assert_eq!(r.rebuilds, 1);
        assert_eq!(h2.epoch(), 1);
        assert_eq!(h2.n(), 310);
        assert!(h2.node_epochs().iter().all(|&e| e == 1));
        check_accuracy(&h2, 1e-4);
    }

    #[test]
    fn cached_operator_update_leaves_no_stale_entries() {
        let pts = gen::uniform_cube(800, 3, 12);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            cache_budget: CacheBudget::Ratio(0.5),
            ..H2Config::default()
        };
        let mut h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let b = probe_vector(800, 13);
        let _ = h2.matvec(&b); // populate
        let mut ins = PointSet::new(3, vec![]);
        ins.push(&[0.42, 0.17, 0.88]);
        h2.insert_points(&ins).unwrap();
        let b2 = probe_vector(801, 14);
        let _ = h2.matvec(&b2);
        // Zero stale-epoch residency: every resident key's epoch equals
        // its pair's current epoch.
        let cache = h2.cache().unwrap().clone();
        for (kind, i, j, e) in cache.keys() {
            assert_eq!(
                e,
                h2.pair_epoch(i, j),
                "stale {kind:?} ({i}, {j}) at epoch {e}"
            );
        }
        assert!(cache.stats().stale_purged > 0 || cache.stats().entries == 0);
        check_accuracy(&h2, 1e-4);
    }

    /// The operator's lists equal a fresh traversal of its tree.
    fn assert_lists_current(h2: &H2Matrix, step: &str) {
        let fresh = build_block_lists(h2.tree(), h2.lists().eta);
        let kept = h2.lists();
        assert_eq!(kept.interaction, fresh.interaction, "{step}");
        assert_eq!(kept.nearfield, fresh.nearfield, "{step}");
        assert_eq!(kept.interaction_pairs, fresh.interaction_pairs, "{step}");
        assert_eq!(kept.nearfield_pairs, fresh.nearfield_pairs, "{step}");
    }

    #[test]
    fn lists_stand_until_a_box_grows_or_a_leaf_splits() {
        let mut h2 = build(900, MemoryMode::OnTheFly, 17);
        let max_leaf = h2
            .tree()
            .leaves()
            .iter()
            .map(|&l| h2.tree().node(l).len())
            .max();
        h2.set_update_policy(UpdatePolicy {
            max_leaf_points: max_leaf,
            ..UpdatePolicy::default()
        })
        .unwrap();
        // Whether the lists are the ones before the update, shared by the
        // operator and its table, and how many leaves the update split.
        let update = |h2: &mut H2Matrix, edit: &dyn Fn(&mut H2Matrix) -> UpdateReport| {
            let before = h2.lists.clone();
            let splits = edit(h2).splits;
            assert!(Arc::ptr_eq(&h2.lists, h2.table.lists()), "one copy");
            (Arc::ptr_eq(&before, &h2.lists), splits)
        };
        // The centre of a leaf's box lies in every box on its routed path.
        let leaf = h2.tree().leaves()[3];
        let inside = PointSet::new(3, h2.tree().node(leaf).bbox.center());
        let (stood, _) = update(&mut h2, &|h2| h2.insert_points(&inside).unwrap());
        assert!(stood, "an insert inside the boxes");
        assert_lists_current(&h2, "inside");
        let (stood, _) = update(&mut h2, &|h2| h2.remove_points(&[5, 400]).unwrap());
        assert!(stood, "a removal");
        assert_lists_current(&h2, "removal");
        // Outside the unit cube every path box grows: the lists are rebuilt.
        let outside = PointSet::new(3, vec![1.4, -0.3, 0.5]);
        let (stood, _) = update(&mut h2, &|h2| h2.insert_points(&outside).unwrap());
        assert!(!stood, "an insert outside the boxes");
        assert_lists_current(&h2, "outside");
        // Hammer one spot until its leaf splits: new leaves, new pairs.
        let mut splits = 0;
        for k in 0..60 {
            let e = 1e-4 * k as f64;
            let p = PointSet::new(3, vec![0.3 + e, 0.6 - e, 0.4]);
            let stood;
            (stood, splits) = update(&mut h2, &|h2| h2.insert_points(&p).unwrap());
            assert_lists_current(&h2, "hammer");
            if splits > 0 {
                assert!(!stood, "a split rebuilds the lists");
                break;
            }
        }
        assert!(splits > 0, "no leaf ever split");
        check_accuracy(&h2, 1e-4);
    }

    #[test]
    fn a_diameter_tie_relists_when_a_point_count_changes() {
        // On a grid, boxes of equal size tie on diameter and the traversal
        // splits the one with more points: a removal, which moves no box,
        // can still change which pairs are listed.
        let grid = PointSet::from_fn(512, 3, |i, d| ((i >> (3 * d)) & 7) as f64);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            leaf_size: 32,
            ..H2Config::default()
        };
        let mut h2 = H2Matrix::build(&grid, Arc::new(Coulomb), &cfg);
        for ids in [&[0][..], &[200, 201], &[500]] {
            h2.remove_points(ids).unwrap();
            assert_lists_current(&h2, &format!("removed {ids:?}"));
        }
        let mut one = PointSet::new(3, vec![]);
        one.push(&[3.0, 4.0, 2.0]);
        h2.insert_points(&one).unwrap();
        assert_lists_current(&h2, "a grid point again");
    }

    #[test]
    fn typed_errors_before_any_mutation() {
        let mut h2 = build(300, MemoryMode::Normal, 15);
        let bad = PointSet::new(2, vec![]);
        assert!(matches!(
            h2.insert_points(&bad),
            Err(UpdateError::DimMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert_eq!(h2.remove_points(&[999]), Err(UpdateError::OutOfRange(999)));
        let all: Vec<usize> = (0..300).collect();
        assert_eq!(h2.remove_points(&all), Err(UpdateError::WouldEmpty));
        assert_eq!(h2.epoch(), 0);
        // Interpolation operators store grid proxies: typed rejection.
        let pts = gen::uniform_cube(200, 2, 16);
        let cfg = H2Config {
            basis: BasisMethod::Interpolation { order: 4 },
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let mut grid = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let mut one = PointSet::new(2, vec![]);
        one.push(&[0.5, 0.5]);
        assert_eq!(grid.insert_points(&one), Err(UpdateError::CoordProxies));
    }
}
