//! The five-sweep engine: the paper's Algorithm 2 (gather → upward →
//! horizontal → downward → leaf + nearfield → scatter), written once and
//! run on every core.
//!
//! [`H2MatrixS::matvec`] is the `k = 1` call and [`H2MatrixS::matmat`] the
//! any-`k` call of one function that runs the phases of a [`Sweep`] over the
//! whole-tree [`SweepPlan`]; `h2-dist`'s shard and coordinator ranks run
//! the same four phase methods on the plan of the nodes they own, with
//! their sends and receives between the phases.
//!
//! ## Groups, cells and rounds
//!
//! The tree is cut once ([`ClusterTree::cut_at_level`]) at the shallowest
//! level at least [`GROUPS`] nodes wide; every cut root with its subtree is
//! a **group**, and the few nodes above the cut form one more, the **top**
//! group. The cut depends on the tree only. The workspace is laid out
//! group-major, so everything a group's nodes own — their `q`/`g` panels,
//! their leaves' `y` rows — is one contiguous slice per buffer.
//!
//! A block pair `(i, j)` belongs to the **cell** of its two groups. A cell
//! writes only into its own two groups, so cells that share no group can run
//! at the same time. Each horizontal sweep is therefore a sequence of
//! **rounds** ([`PairOrder`]): first the diagonal cells (both nodes in one
//! group), then the off-diagonal cells packed greedily, heaviest first, into
//! rounds in which no group appears twice. Threads take the cells of a round
//! heaviest first and meet at a barrier before the next round; the tree
//! sweeps run one task per group, the top group on its own before (downward)
//! or after (upward) the others.
//!
//! ## The order invariant
//!
//! Both horizontal sweeps walk the *unique* block pairs `(i ≤ j)` in the
//! total order "cell by cell in round order, ascending list position inside
//! a cell" and apply each block in both directions (`out_i += B x_j`,
//! `out_j += Bᵀ x_i`) in one call while it is live:
//! [`panel::matmat_bi_acc`] fetches `B` from memory once for both (at
//! `k ≥ 4` its transposed tile fetches it, reading the block's two halves
//! as two sequential streams, and the forward tile re-reads it from L2),
//! and every entry of either output keeps the sum order of its
//! one-direction apply. A rank
//! that owns one endpoint of a pair calls that direction's kernel alone,
//! with the same bits. A target therefore receives the contributions of its
//! diagonal cell in ascending neighbour order, then those of its
//! off-diagonal cells round by round. The order is a function of the
//! operator (tree, lists, ranks) only — never of the thread count, of the
//! shard count, or of timing — and a rank's schedule is the same order
//! filtered to the pairs with an owned endpoint, with only the owned
//! directions flagged. That is what makes the result bitwise identical at
//! any width, a panel column bitwise equal to the vector product, and a
//! sharded sweep bitwise equal to the serial one. A block is touched once
//! per sweep: read from its slot of the block table once, or generated
//! once — by whichever thread took its cell.
//!
//! ## Who owns a thread
//!
//! A product is one step list of the workspace's scoped executor
//! ([`h2_linalg::exec`], which construction runs on too): the caller plus
//! up to `width − 1` helpers scoped to that one product (no pool, no state
//! between products). [`H2MatrixS::matvec`]/[`H2MatrixS::matmat`] pass
//! [`exec::width`] — the machine's parallelism, or the width installed
//! around the caller; a distributed rank is itself the unit of parallelism
//! and passes 1. Phase spans and counters are recorded by the calling thread
//! only (helpers tally in plain integers), so telemetry scopes see exactly
//! the product's work at any width.
//!
//! ## Two tiers, one arithmetic class
//!
//! A step names its pair's list position, and the fetch has two tiers: the
//! slot of the operator's [`crate::cache::BlockTable`] at that position
//! (owned or mapped, at the pair's current epoch), or, not held, the block
//! materialized into a per-thread scratch by `H2MatrixS::materialize_into`:
//! evaluated in `f64` and rounded once to the storage scalar `S`, exactly as
//! the table's plan holds it. A thread counts its hits and misses in plain
//! integers; the calling thread adds them to the table's counters after the
//! join. Every block is then applied with the panel kernels of
//! [`h2_linalg::panel`], as are the bases and transfers: a `k`-column panel
//! is one register-blocked pass per block, and its column `c` has the bits
//! of the vector product. So a product does not depend on where its blocks
//! came from: on-the-fly ≡ cached at any budget ≡ stored ≡ mapped, bit for
//! bit.

use crate::cache::BlockKind;
use crate::diagnostics::BlockTally;
use crate::h2matrix::{sized, H2MatrixS};
use h2_linalg::{exec, panel, Scalar};
use h2_points::admissibility::BlockLists;
use h2_points::{ClusterTree, NodeId};
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// The sweeps group their work by the cut roots of the shallowest tree level
/// with at least this many of them (a tree that never gets this wide is one
/// group and runs on the calling thread).
pub const GROUPS: usize = 8;

/// One step of a pair schedule: the canonical pair `(i ≤ j)` and which of
/// its two directions the executing rank applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairStep {
    /// Position of the pair in its sorted list (= slot of its stored block).
    pub slot: usize,
    /// Row node of the canonical block `B_{i,j}`.
    pub i: NodeId,
    /// Column node.
    pub j: NodeId,
    /// `i` is owned: `out_i += B x_j`.
    pub fwd: bool,
    /// `j` is owned (and `j != i`): `out_j += Bᵀ x_i`.
    pub rev: bool,
}

/// All pairs of one family between two groups (`groups.0 ≤ groups.1`; a
/// diagonal cell has both equal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The two groups the cell reads from and writes into.
    pub groups: (usize, usize),
    /// Bytes of the cell's blocks were they materialized — its weight.
    pub bytes: usize,
    /// The cell's stretch of [`PairOrder::slots`].
    pairs: Range<usize>,
}

/// The execution order of one pair family: every listed pair exactly once,
/// cell by cell, the cells packed into conflict-free rounds.
#[derive(Clone, Debug)]
pub struct PairOrder {
    /// List positions of the pairs, cell by cell, ascending inside a cell.
    slots: Vec<usize>,
    /// The cells in execution order.
    cells: Vec<Cell>,
    /// Round `r` is `cells[rounds[r]..rounds[r + 1]]`; round 0 holds the
    /// diagonal cells.
    rounds: Vec<usize>,
}

impl PairOrder {
    /// Orders `pairs` by the cell of their nodes' `group`s (`n_groups`
    /// including the top group); `bytes` weighs a pair's block.
    fn new(
        pairs: &[(NodeId, NodeId)],
        group: &[usize],
        n_groups: usize,
        bytes: impl Fn(NodeId, NodeId) -> usize,
    ) -> Self {
        let cell_of = |&(i, j): &(NodeId, NodeId)| {
            let (c, d) = (group[i].min(group[j]), group[i].max(group[j]));
            c * n_groups + d
        };
        let mut count = vec![0usize; n_groups * n_groups];
        let mut weight = vec![0usize; n_groups * n_groups];
        for pair in pairs {
            let cell = cell_of(pair);
            count[cell] += 1;
            weight[cell] += bytes(pair.0, pair.1);
        }
        // Diagonal cells first, in group order.
        let mut order: Vec<usize> = (0..n_groups)
            .map(|c| c * n_groups + c)
            .filter(|&cell| count[cell] > 0)
            .collect();
        let mut rounds = vec![0, order.len()];
        // Off-diagonal cells heaviest first; each pass over what is left
        // fills one round with cells whose groups are still free.
        let mut left: Vec<usize> = (0..n_groups * n_groups)
            .filter(|&cell| cell / n_groups < cell % n_groups && count[cell] > 0)
            .collect();
        left.sort_by_key(|&cell| (Reverse(weight[cell]), cell));
        let mut busy = vec![false; n_groups];
        while !left.is_empty() {
            busy.fill(false);
            left.retain(|&cell| {
                let (c, d) = (cell / n_groups, cell % n_groups);
                if busy[c] || busy[d] {
                    return true;
                }
                (busy[c], busy[d]) = (true, true);
                order.push(cell);
                false
            });
            rounds.push(order.len());
        }
        // Counting sort of the list positions by cell.
        let mut next = vec![0usize; n_groups * n_groups];
        let mut at = 0;
        let cells = order
            .iter()
            .map(|&cell| {
                next[cell] = at;
                at += count[cell];
                Cell {
                    groups: (cell / n_groups, cell % n_groups),
                    bytes: weight[cell],
                    pairs: next[cell]..at,
                }
            })
            .collect();
        let mut slots = vec![0usize; pairs.len()];
        for (slot, pair) in pairs.iter().enumerate() {
            let cell = cell_of(pair);
            slots[next[cell]] = slot;
            next[cell] += 1;
        }
        PairOrder {
            slots,
            cells,
            rounds,
        }
    }

    /// The rounds in execution order, each a set of cells no two of which
    /// share a group (heaviest first); the first round holds the diagonal
    /// cells and may be empty.
    pub fn rounds(&self) -> impl Iterator<Item = &[Cell]> + '_ {
        self.rounds.windows(2).map(|w| &self.cells[w[0]..w[1]])
    }

    /// List positions of a cell's pairs, ascending.
    pub fn slots(&self, cell: &Cell) -> &[usize] {
        &self.slots[cell.pairs.clone()]
    }
}

/// What one rank executes: the nodes it owns, by level and as leaves, the
/// grouping of the tree, the pair schedule that follows from both, and the
/// flat group-major panel layout.
///
/// Derived per apply from the operator's tree, lists and ranks in
/// O(nodes + pairs); nothing of it is stored in the operator.
pub struct SweepPlan<'a> {
    tree: &'a ClusterTree,
    levels: &'a [Vec<NodeId>],
    leaves: &'a [NodeId],
    lists: &'a BlockLists,
    ranks: &'a [usize],
    owned: Vec<bool>,
    /// Group of every node: the index of its cut root, or `top` above the
    /// cut.
    group: Vec<usize>,
    /// Index of the top group (= number of cut roots).
    top: usize,
    /// Node `i`'s first coefficient row in `q` / `g`.
    q_off: Vec<usize>,
    /// Group `c`'s coefficient rows are `q_base[c]..q_base[c + 1]`.
    q_base: Vec<usize>,
    /// Group `c`'s tree positions are `y_base[c]..y_base[c + 1]` (none for
    /// the top group: every leaf is inside a cut subtree).
    y_base: Vec<usize>,
    coupling: PairOrder,
    nearfield: PairOrder,
}

impl<'a> SweepPlan<'a> {
    /// The plan of the rank that owns `levels` (absolute tree levels, root
    /// level first) and, among them, `leaves`.
    pub fn new<S: Scalar>(
        h2: &'a H2MatrixS<S>,
        levels: &'a [Vec<NodeId>],
        leaves: &'a [NodeId],
    ) -> Self {
        let (tree, ranks) = (&h2.tree, &h2.ranks[..]);
        let roots = tree.cut_at_level(tree.level_with_cut(GROUPS).unwrap_or(0));
        let top = roots.len();
        let mut group = vec![top; ranks.len()];
        let mut stack = Vec::new();
        for (c, &root) in roots.iter().enumerate() {
            stack.push(root);
            while let Some(i) = stack.pop() {
                group[i] = c;
                stack.extend_from_slice(&tree.node(i).children);
            }
        }
        // Group-major panel layout: groups in order, node ids ascending
        // inside a group.
        let mut q_base = vec![0; top + 2];
        for (i, &r) in ranks.iter().enumerate() {
            q_base[group[i] + 1] += r;
        }
        for c in 0..=top {
            q_base[c + 1] += q_base[c];
        }
        let mut next = q_base.clone();
        let q_off = (0..ranks.len())
            .map(|i| {
                let at = next[group[i]];
                next[group[i]] += ranks[i];
                at
            })
            .collect();
        let n = tree.points().len();
        let y_base = roots
            .iter()
            .map(|&r| tree.node(r).start)
            .chain([n, n])
            .collect();
        let mut owned = vec![false; ranks.len()];
        for &i in levels.iter().flatten() {
            owned[i] = true;
        }
        let bytes = |kind| {
            move |i, j| {
                let (rows, cols) = h2.block_shape(kind, i, j);
                rows * cols * S::BYTES
            }
        };
        let lists = &h2.lists;
        SweepPlan {
            tree,
            levels,
            leaves,
            lists,
            ranks,
            owned,
            top,
            q_off,
            q_base,
            y_base,
            coupling: PairOrder::new(
                &lists.interaction_pairs,
                &group,
                top + 1,
                bytes(BlockKind::Coupling),
            ),
            nearfield: PairOrder::new(
                &lists.nearfield_pairs,
                &group,
                top + 1,
                bytes(BlockKind::Nearfield),
            ),
            group,
        }
    }

    /// The whole-tree plan of the serial product.
    pub fn whole<S: Scalar>(h2: &'a H2MatrixS<S>) -> Self {
        Self::new(h2, h2.tree.levels(), h2.tree.leaves())
    }

    /// The group of node `i`: the index of its cut root in tree-position
    /// order, or the number of cut roots for a node above the cut.
    pub fn group(&self, i: NodeId) -> usize {
        self.group[i]
    }

    /// Where node `i`'s `rank_i × k` column-major panel sits in the `q` and
    /// `g` workspaces.
    pub fn q_range(&self, i: NodeId, k: usize) -> Range<usize> {
        self.q_off[i] * k..(self.q_off[i] + self.ranks[i]) * k
    }

    /// [`Self::q_range`] relative to the start of the node's group.
    fn q_local(&self, i: NodeId, k: usize) -> Range<usize> {
        let base = self.q_base[self.group[i]];
        (self.q_off[i] - base) * k..(self.q_off[i] - base + self.ranks[i]) * k
    }

    /// Where leaf `l`'s `len × k` column-major rows sit in `b` / `y`.
    fn y_range(&self, l: NodeId, k: usize) -> Range<usize> {
        let nd = self.tree.node(l);
        nd.start * k..nd.end * k
    }

    /// [`Self::y_range`] relative to the start of the leaf's group.
    fn y_local(&self, l: NodeId, k: usize) -> Range<usize> {
        let (nd, base) = (self.tree.node(l), self.y_base[self.group[l]]);
        (nd.start - base) * k..(nd.end - base) * k
    }

    /// The sorted pair list and the execution order of one family.
    fn family(&self, kind: BlockKind) -> (&'a [(NodeId, NodeId)], &PairOrder) {
        let order = match kind {
            BlockKind::Coupling => &self.coupling,
            BlockKind::Nearfield => &self.nearfield,
        };
        (kind.pairs(self.lists), order)
    }

    /// The execution order of one pair family (all listed pairs, whatever
    /// this rank owns).
    pub fn order(&self, kind: BlockKind) -> &PairOrder {
        self.family(kind).1
    }

    /// The pair at list position `slot`, if this rank applies either of its
    /// directions.
    fn step(&self, pairs: &[(NodeId, NodeId)], slot: usize) -> Option<PairStep> {
        let (i, j) = pairs[slot];
        let (fwd, rev) = (self.owned[i], self.owned[j] && i != j);
        (fwd || rev).then_some(PairStep {
            slot,
            i,
            j,
            fwd,
            rev,
        })
    }

    fn steps(&self, kind: BlockKind) -> impl Iterator<Item = PairStep> + '_ {
        let (pairs, order) = self.family(kind);
        order
            .slots
            .iter()
            .filter_map(move |&slot| self.step(pairs, slot))
    }

    /// The coupling schedule of the horizontal sweep, in execution order.
    pub fn coupling(&self) -> impl Iterator<Item = PairStep> + '_ {
        self.steps(BlockKind::Coupling)
    }

    /// The nearfield schedule of the leaf sweep, in execution order.
    pub fn nearfield(&self) -> impl Iterator<Item = PairStep> + '_ {
        self.steps(BlockKind::Nearfield)
    }

    /// Every block this rank touches, in the order its sweeps first touch
    /// it, as its step (slot and pair) with its size in bytes were it
    /// materialized in `S` — the order a table's budget is filled in.
    pub fn block_schedule<'s, S: Scalar>(
        &'s self,
        h2: &'s H2MatrixS<S>,
    ) -> impl Iterator<Item = (BlockKind, PairStep, usize)> + 's {
        let bytes = move |kind, st: PairStep| {
            let (rows, cols) = h2.block_shape(kind, st.i, st.j);
            (kind, st, rows * cols * S::BYTES)
        };
        self.coupling()
            .map(move |st| bytes(BlockKind::Coupling, st))
            .chain(
                self.nearfield()
                    .map(move |st| bytes(BlockKind::Nearfield, st)),
            )
    }

    /// The barrier-separated steps of `phases`, in execution order.
    fn schedule(&self, phases: &[Phase]) -> Schedule {
        let groups = |task: fn(usize) -> Task| (0..self.top).map(task);
        // The top group's own step: none without a cut (node 0, the root,
        // is then inside the one group).
        let top = |task: fn(usize) -> Task| {
            let above = self.group[0] == self.top;
            above.then(|| task(self.top)).into_iter()
        };
        let rounds = |schedule: &mut Schedule, phase, kind| {
            let mut at = 0;
            for round in self.order(kind).rounds() {
                let cells = at..at + round.len();
                at = cells.end;
                schedule.step(phase, cells.map(|cell| Task::Cell(kind, cell)));
            }
        };
        let mut schedule = Schedule::default();
        for (phase, kind) in phases.iter().enumerate() {
            match kind {
                Phase::Upward => {
                    schedule.step(phase, groups(Task::Up));
                    schedule.step(phase, top(Task::Up));
                }
                Phase::Horizontal => rounds(&mut schedule, phase, BlockKind::Coupling),
                Phase::Downward => {
                    schedule.step(phase, top(Task::Down));
                    schedule.step(phase, groups(Task::Down));
                }
                Phase::Leaf => {
                    schedule.step(phase, groups(Task::Basis));
                    rounds(&mut schedule, phase, BlockKind::Nearfield);
                }
            }
        }
        schedule
    }
}

/// The four phases between gather and scatter.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Upward,
    Horizontal,
    Downward,
    Leaf,
}

impl Phase {
    const ALL: [Phase; 4] = [
        Phase::Upward,
        Phase::Horizontal,
        Phase::Downward,
        Phase::Leaf,
    ];

    fn span_name(self) -> &'static str {
        match self {
            Phase::Upward => "matvec.upward",
            Phase::Horizontal => "matvec.horizontal",
            Phase::Downward => "matvec.downward",
            Phase::Leaf => "matvec.leaf",
        }
    }
}

/// One unit of work a thread takes; the tasks of one [`Step`] write into
/// different groups.
#[derive(Clone, Copy, Debug)]
enum Task {
    /// `q` of the owned nodes of one group, deepest level first.
    Up(usize),
    /// `g_i += R_i g_p` at the owned nodes whose *parent* is in one group,
    /// shallowest level first (so the top group also feeds the cut roots).
    Down(usize),
    /// `y_i = U_i g_i` at the owned leaves of one group.
    Basis(usize),
    /// One cell of a family's [`PairOrder`].
    Cell(BlockKind, usize),
}

/// Tasks that may run at the same time, followed by a barrier.
struct Step {
    /// Position of the step's phase in the list the schedule was made for.
    phase: usize,
    /// The step's stretch of [`Schedule::tasks`].
    tasks: Range<usize>,
}

/// What one [`Sweep::run`] executes: steps in order, each a run of tasks.
#[derive(Default)]
struct Schedule {
    tasks: Vec<Task>,
    steps: Vec<Step>,
}

impl Schedule {
    /// Appends `tasks` as one step, unless there are none.
    fn step(&mut self, phase: usize, tasks: impl Iterator<Item = Task>) {
        let at = self.tasks.len();
        self.tasks.extend(tasks);
        let tasks = at..self.tasks.len();
        if !tasks.is_empty() {
            self.steps.push(Step { phase, tasks });
        }
    }
}

/// The buffers a thread materializes blocks into, sized once per product
/// for the largest block it can generate.
#[derive(Default)]
pub(crate) struct Scratch<S> {
    /// A block's `f64` entries before they are rounded to a narrower `S`.
    block: Vec<f64>,
    /// A block not held, column-major in `S` as the builders store it
    /// ([`H2MatrixS::materialize_into`]).
    stored: Vec<S>,
}

/// The single two-tier fetch of the listed canonical pair `(i, j)` at list
/// position `slot`: the block its slot of the table holds, or, not held,
/// the block materialized into `scratch`. Column-major in `S`; the hit, or
/// the miss and its generation, is counted in `tally`.
pub(crate) fn fetch<'a, S: Scalar>(
    h2: &'a H2MatrixS<S>,
    kind: BlockKind,
    (slot, i, j): (usize, NodeId, NodeId),
    scratch: &'a mut Scratch<S>,
    tally: &mut BlockTally,
) -> &'a [S] {
    if let Some(block) = h2.table.block(kind, slot, h2.pair_epoch(i, j)) {
        tally.hit();
        return block.as_slice();
    }
    let (rows, cols) = h2.block_shape(kind, i, j);
    tally.miss(kind, rows, cols);
    let stored = sized(&mut scratch.stored, rows * cols);
    h2.materialize_into(kind, (i, j), stored, &mut scratch.block);
    stored
}

/// The panels `buf[a]` and `buf[b]` of two different nodes, both mutable;
/// the ranges never overlap.
fn split_panels<A>(buf: &mut [A], a: Range<usize>, b: Range<usize>) -> (&mut [A], &mut [A]) {
    if a.end <= b.start {
        let (lo, hi) = buf.split_at_mut(b.start);
        (&mut lo[a], &mut hi[..b.end - b.start])
    } else {
        assert!(b.end <= a.start, "node panels overlap");
        let (lo, hi) = buf.split_at_mut(a.start);
        (&mut hi[..a.end - a.start], &mut lo[b])
    }
}

/// Column `c` of a `rows × k` column-major panel that starts at `base`.
fn col(base: usize, rows: usize, c: usize) -> Range<usize> {
    base + c * rows..base + (c + 1) * rows
}

/// Cuts `buf` (rows of `k` columns each) into one slice per group at the
/// row bounds `base`, each behind the lock its tasks take.
fn by_group<'s, A>(buf: &'s mut [A], base: &[usize], k: usize) -> Vec<Mutex<&'s mut [A]>> {
    let mut rest = buf;
    let cut = |w: &[usize]| {
        let (group, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * k);
        rest = tail;
        Mutex::new(group)
    };
    base.windows(2).map(cut).collect()
}

/// A group's slice. Steps keep two tasks out of one group, so the lock is
/// never contended; it fails only after a task panicked holding it.
fn lock<'g, 's, A>(group: &'g Mutex<&'s mut [A]>) -> MutexGuard<'g, &'s mut [A]> {
    group
        .lock()
        .expect("a sweep task panicked inside this group")
}

/// The slices of a cell's two groups (one on the diagonal).
fn lock2<'g, 's, A>(
    buf: &'g [Mutex<&'s mut [A]>],
    c: usize,
    d: usize,
) -> (
    MutexGuard<'g, &'s mut [A]>,
    Option<MutexGuard<'g, &'s mut [A]>>,
) {
    (lock(&buf[c]), (c != d).then(|| lock(&buf[d])))
}

/// The output slice of a cell's second group when `second` (and the cell
/// has one), else of its first.
fn side<'o, A>(first: &'o mut [A], other: &'o mut Option<&mut [A]>, second: bool) -> &'o mut [A] {
    match other {
        Some(other) if second => other,
        _ => first,
    }
}

/// The output panels of two different nodes of a cell, each `(second,
/// range)`: in the cell's second group when `second`, else in its first.
fn sides<'o, A>(
    first: &'o mut [A],
    other: &'o mut Option<&mut [A]>,
    (si, ri): (bool, Range<usize>),
    (sj, rj): (bool, Range<usize>),
) -> (&'o mut [A], &'o mut [A]) {
    if si == sj {
        return split_panels(side(first, other, si), ri, rj);
    }
    let other = other
        .as_deref_mut()
        .expect("only a cell with two groups has a second");
    if si {
        (&mut other[ri], &mut first[rj])
    } else {
        (&mut first[ri], &mut other[rj])
    }
}

/// What each thread of a product has to itself.
struct Local<S, A> {
    /// The `rank × k` panel `R_i g_p` (downward sweep).
    add: Vec<A>,
    /// The one materialized block alive at a time.
    scratch: Scratch<S>,
    /// This thread's hits and misses and the blocks it generated, for the
    /// caller to record.
    tally: BlockTally,
}

/// Capacities of a [`Local`]: the largest `rank × k` panel, and the most
/// entries of a block it may materialize in `f64` and in `S`.
#[derive(Clone, Copy)]
struct LocalSize {
    panel: usize,
    block: usize,
    stored: usize,
}

impl<S: Scalar, A: Scalar> Local<S, A> {
    fn new(size: LocalSize) -> Self {
        Local {
            add: vec![A::ZERO; size.panel],
            scratch: Scratch {
                block: Vec::with_capacity(size.block),
                stored: Vec::with_capacity(size.stored),
            },
            tally: BlockTally::default(),
        }
    }
}

/// One product in flight: the flat workspace of `k` right-hand sides and
/// the four phases that fill it, run on `width` threads. Every buffer holds
/// per-node column-major panels, group-major: node `i`'s coefficients at
/// [`SweepPlan::q_range`] in `q` / `g`, leaf `l`'s rows at `start·k..end·k`
/// in `b` / `y` (tree order, in which the groups are contiguous). Buffers
/// are public so a distributed rank can send panels out of them and receive
/// panels into them between phases.
pub struct Sweep<'a, S: Scalar, A: Scalar> {
    h2: &'a H2MatrixS<S>,
    plan: &'a SweepPlan<'a>,
    k: usize,
    width: usize,
    /// Right-hand sides, gathered into tree order.
    pub b: Vec<A>,
    /// Results in tree order.
    pub y: Vec<A>,
    /// Upward coefficients `q_i`.
    pub q: Vec<A>,
    /// Downward coefficients `g_i`.
    pub g: Vec<A>,
    /// One per thread that has run so far; the calling thread's first.
    /// Helpers borrow theirs, so they allocate nothing of their own.
    locals: Vec<Local<S, A>>,
    local_size: LocalSize,
}

impl<'a, S: Scalar, A: Scalar> Sweep<'a, S, A> {
    /// A zeroed workspace for `k` right-hand sides whose phases run on up
    /// to `width` threads (the caller and `width − 1` helpers). The rank
    /// fetches its blocks from the operator's table.
    pub fn new(h2: &'a H2MatrixS<S>, plan: &'a SweepPlan<'a>, k: usize, width: usize) -> Self {
        debug_assert!(
            Arc::ptr_eq(&h2.lists, h2.table.lists()),
            "slots off the lists"
        );
        let n = h2.n();
        let coeffs = plan.q_base[plan.top + 1] * k;
        // Scratch sized once for the largest block of the schedule the
        // table does not hold (none when it holds every listed block), so
        // the sweeps never reallocate: a block is stored as `S`, and
        // evaluated in `f64` first only when it has to be rounded.
        let missing = |kind| {
            plan.steps(kind).filter_map(move |st| {
                let (i, j) = (st.i, st.j);
                let held = h2.table.block(kind, st.slot, h2.pair_epoch(i, j));
                let (rows, cols) = h2.block_shape(kind, i, j);
                held.is_none().then_some(rows * cols)
            })
        };
        let both = missing(BlockKind::Coupling).chain(missing(BlockKind::Nearfield));
        let stored = h2.table.budget().map_or(0, |_| both.max().unwrap_or(0));
        let rounds = S::as_f64s(&[]).is_none();
        let local_size = LocalSize {
            panel: h2.ranks.iter().copied().max().unwrap_or(0) * k,
            block: if rounds { stored } else { 0 },
            stored,
        };
        Sweep {
            h2,
            plan,
            k,
            width,
            b: vec![A::ZERO; n * k],
            y: vec![A::ZERO; n * k],
            q: vec![A::ZERO; coeffs],
            g: vec![A::ZERO; coeffs],
            locals: vec![Local::new(local_size)],
            local_size,
        }
    }

    /// Gathers `b` (`n × k` column-major, original point order) into tree
    /// order.
    pub fn gather(&mut self, b: &[A]) {
        let (tree, k, n) = (&self.h2.tree, self.k, self.h2.n());
        let perm = tree.perm();
        for &l in tree.leaves() {
            let nd = tree.node(l);
            for c in 0..k {
                let dst = &mut self.b[col(nd.start * k, nd.len(), c)];
                for (d, &p) in dst.iter_mut().zip(&perm[nd.start..nd.end]) {
                    *d = b[c * n + p];
                }
            }
        }
    }

    /// Scatters the tree-order result into `y` (`n × k` column-major,
    /// original point order); every position is written.
    pub fn scatter(&self, y: &mut [A]) {
        let (tree, k, n) = (&self.h2.tree, self.k, self.h2.n());
        let perm = tree.perm();
        for &l in tree.leaves() {
            let nd = tree.node(l);
            for c in 0..k {
                let src = &self.y[col(nd.start * k, nd.len(), c)];
                for (&v, &p) in src.iter().zip(&perm[nd.start..nd.end]) {
                    y[c * n + p] = v;
                }
            }
        }
    }

    /// Sweeps 1 + 2: `q_i = U_iᵀ b_i` at owned leaves, `q_p = Σ_c R_cᵀ q_c`
    /// above, deepest level first. Children of an owned node that are not
    /// owned must already hold their received `q`.
    pub fn upward(&mut self) {
        self.run(&[Phase::Upward], |_| ());
    }

    /// Sweep 3: `g_i += B_{i,j} q_j` and `g_j += B_{i,j}ᵀ q_i` over the
    /// coupling schedule. Sources that are not owned must already hold
    /// their received `q`.
    pub fn horizontal(&mut self) {
        self.run(&[Phase::Horizontal], |_| ());
    }

    /// Sweep 4: `g_i += R_i g_p` over the owned nodes, shallowest level
    /// first. A parent that is not owned must already hold its received
    /// `g`.
    pub fn downward(&mut self) {
        self.run(&[Phase::Downward], |_| ());
    }

    /// Sweep 5: `y_i = U_i g_i` at the owned leaves, then `y_i += N_{i,j}
    /// b_j` and `y_j += N_{i,j}ᵀ b_i` over the nearfield schedule. Leaves
    /// that are not owned must already hold their received `b`.
    pub fn leaf(&mut self) {
        self.run(&[Phase::Leaf], |_| ());
    }

    /// Runs `phases` as one list of executor steps ([`h2_linalg::exec`]) on
    /// the sweep's threads. The calling thread works alongside its helpers
    /// and calls `on_phase` as it enters each phase (every thread is between
    /// the same two barriers then); what all threads read and generated is
    /// recorded by the calling thread at the end.
    fn run(&mut self, phases: &[Phase], mut on_phase: impl FnMut(Phase)) {
        let schedule = self.plan.schedule(phases);
        let steps: Vec<usize> = schedule.steps.iter().map(|s| s.tasks.len()).collect();
        let width = exec::threads_for(self.width, &steps);
        let (plan, k) = (self.plan, self.k);
        let job = Job {
            h2: self.h2,
            plan,
            k,
            b: &self.b,
            y: by_group(&mut self.y, &plan.y_base, k),
            q: by_group(&mut self.q, &plan.q_base, k),
            g: by_group(&mut self.g, &plan.q_base, k),
        };
        while self.locals.len() < width {
            self.locals.push(Local::new(self.local_size));
        }
        // Enters the phases before position `until` not entered yet; one
        // with no step is entered all the same: nothing to do in it.
        let mut entered = 0;
        let mut enter = |until: usize| {
            while entered < until {
                on_phase(phases[entered]);
                entered += 1;
            }
        };
        exec::run(
            &mut self.locals[..width],
            &steps,
            |local, s, t| job.execute(schedule.tasks[schedule.steps[s].tasks.start + t], local),
            |s| enter(schedule.steps[s].phase + 1),
        );
        enter(phases.len());
        let mut tally = BlockTally::default();
        for local in &mut self.locals {
            tally.merge(std::mem::take(&mut local.tally));
        }
        tally.record(self.h2);
        h2_telemetry::counter_add!("sweep.helper_threads", width - 1);
    }
}

/// The view of one [`Sweep::run`] every thread shares: the operator, the
/// plan, and the workspace cut into per-group slices.
struct Job<'s, S: Scalar, A: Scalar> {
    h2: &'s H2MatrixS<S>,
    plan: &'s SweepPlan<'s>,
    k: usize,
    /// Read-only in every phase.
    b: &'s [A],
    y: Vec<Mutex<&'s mut [A]>>,
    q: Vec<Mutex<&'s mut [A]>>,
    g: Vec<Mutex<&'s mut [A]>>,
}

impl<S: Scalar, A: Scalar> Job<'_, S, A> {
    fn execute(&self, task: Task, local: &mut Local<S, A>) {
        match task {
            Task::Up(group) => self.up(group),
            Task::Down(group) => self.down(group, &mut local.add),
            Task::Basis(group) => self.basis(group),
            Task::Cell(kind, cell) => self.cell(kind, &self.plan.order(kind).cells[cell], local),
        }
    }

    /// Runs `f(src's panel, dst's panel)` on one of the coefficient
    /// buffers; the two nodes are parent and child, in either role.
    fn with_panels(
        &self,
        buf: &[Mutex<&mut [A]>],
        src: NodeId,
        dst: NodeId,
        f: impl FnOnce(&[A], &mut [A]),
    ) {
        let (plan, k) = (self.plan, self.k);
        let (gs, gd) = (plan.group[src], plan.group[dst]);
        if gs == gd {
            let mut group = lock(&buf[gs]);
            let (s, d) = split_panels(&mut group, plan.q_local(src, k), plan.q_local(dst, k));
            f(s, d);
        } else {
            // A cut root and its parent above the cut; the top group's
            // task is alone in its step.
            let (s, mut d) = (lock(&buf[gs]), lock(&buf[gd]));
            f(&s[plan.q_local(src, k)], &mut d[plan.q_local(dst, k)]);
        }
    }

    fn up(&self, group: usize) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        let in_group = |&&i: &&NodeId| plan.group[i] == group;
        for &i in plan.levels.iter().rev().flatten().filter(in_group) {
            let nd = h2.tree.node(i);
            if nd.is_leaf() {
                let mut q = lock(&self.q[group]);
                let (bi, qi) = (&self.b[plan.y_range(i, k)], &mut q[plan.q_local(i, k)]);
                h2.bases[i].matmat_t_acc(k, bi, qi);
                continue;
            }
            for &ch in &nd.children {
                let transfer = &h2.transfers[ch];
                if !transfer.is_empty() {
                    self.with_panels(&self.q, ch, i, |qc, qi| transfer.matmat_t_acc(k, qc, qi));
                }
            }
        }
    }

    fn down(&self, group: usize, add: &mut [A]) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        for &i in plan.levels.iter().flatten() {
            let Some(p) = h2.tree.node(i).parent else {
                continue;
            };
            if plan.group[p] != group {
                continue;
            }
            let transfer = &h2.transfers[i];
            let add = &mut add[..h2.ranks[i] * k];
            self.with_panels(&self.g, p, i, |gp, gi| {
                // Into a zeroed panel first: `R_i g_p` is summed on its own
                // before it meets the horizontal sum.
                add.fill(A::ZERO);
                if !transfer.is_empty() {
                    transfer.matmat_acc(k, gp, add);
                }
                for (a, &v) in gi.iter_mut().zip(add.iter()) {
                    *a += v;
                }
            });
        }
    }

    fn basis(&self, group: usize) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        let (g, mut y) = (lock(&self.g[group]), lock(&self.y[group]));
        for &i in plan.leaves.iter().filter(|&&i| plan.group[i] == group) {
            let (gi, yi) = (&g[plan.q_local(i, k)], &mut y[plan.y_local(i, k)]);
            h2.bases[i].matmat_acc(k, gi, yi);
        }
    }

    /// Applies the owned directions of every pair of one cell, in list
    /// order, holding the cell's two groups.
    fn cell(&self, kind: BlockKind, cell: &Cell, local: &mut Local<S, A>) {
        let (plan, k) = (self.plan, self.k);
        let (c, d) = cell.groups;
        match kind {
            BlockKind::Coupling => {
                let ((qc, qd), (mut gc, mut gd)) = (lock2(&self.q, c, d), lock2(&self.g, c, d));
                let q_of = |i: NodeId| match &qd {
                    Some(qd) if plan.group[i] != c => &qd[plan.q_local(i, k)],
                    _ => &qc[plan.q_local(i, k)],
                };
                let out = (&mut **gc, gd.as_mut().map(|g| &mut ***g));
                self.pairs(kind, cell, local, q_of, out, |i| plan.q_local(i, k));
            }
            BlockKind::Nearfield => {
                let (mut yc, mut yd) = lock2(&self.y, c, d);
                let b_of = |i: NodeId| &self.b[plan.y_range(i, k)];
                let out = (&mut **yc, yd.as_mut().map(|y| &mut ***y));
                self.pairs(kind, cell, local, b_of, out, |i| plan.y_local(i, k));
            }
        }
    }

    /// The pair loop of [`Self::cell`]: `input(i)` is node `i`'s input
    /// panel, `out` the output slices of the cell's first and (off the
    /// diagonal) second group, `out_at(i)` node `i`'s panel in its slice.
    fn pairs<'x>(
        &self,
        kind: BlockKind,
        cell: &Cell,
        local: &mut Local<S, A>,
        input: impl Fn(NodeId) -> &'x [A],
        (out_c, mut out_d): (&mut [A], Option<&mut [A]>),
        out_at: impl Fn(NodeId) -> Range<usize>,
    ) where
        A: 'x,
    {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        let (pairs, order) = plan.family(kind);
        let Local { scratch, tally, .. } = local;
        // Node `i`'s output panel: in the cell's second group or its first.
        let second = |i: NodeId| plan.group[i] != cell.groups.0;
        let steps = order.slots(cell).iter();
        for st in steps.filter_map(|&slot| plan.step(pairs, slot)) {
            let b = fetch(h2, kind, (st.slot, st.i, st.j), scratch, tally);
            let (rows, cols) = h2.block_shape(kind, st.i, st.j);
            let (oi, oj) = ((second(st.i), out_at(st.i)), (second(st.j), out_at(st.j)));
            // One call per step. With both directions owned, one walk over
            // `B` serves both: they write different nodes' panels, and
            // every entry keeps the sum order of its one-direction apply.
            match (st.fwd, st.rev) {
                (true, true) => {
                    let (yi, yj) = sides(out_c, &mut out_d, oi, oj);
                    let (xj, xi) = (input(st.j), input(st.i));
                    panel::matmat_bi_acc(b, rows, cols, k, xj, yi, xi, yj);
                }
                (true, false) => {
                    let yi = &mut side(out_c, &mut out_d, oi.0)[oi.1];
                    panel::matmat_acc(b, rows, cols, k, input(st.j), yi);
                }
                (false, _) => {
                    let yj = &mut side(out_c, &mut out_d, oj.0)[oj.1];
                    panel::matmat_t_acc(b, rows, cols, k, input(st.i), yj);
                }
            }
        }
    }
}

impl<S: Scalar> H2MatrixS<S> {
    /// Shape of the listed block `(i, j)` of the given family.
    pub(crate) fn block_shape(&self, kind: BlockKind, i: NodeId, j: NodeId) -> (usize, usize) {
        match kind {
            BlockKind::Coupling => (self.ranks[i], self.ranks[j]),
            BlockKind::Nearfield => (self.tree.node(i).len(), self.tree.node(j).len()),
        }
    }

    /// `Y = Â B` for `k` right-hand sides: `b` and `y` are `n × k`
    /// column-major in the original point order; `y` is overwritten. Runs
    /// as wide as [`exec::width`] says.
    pub(crate) fn apply_panel<A: Scalar>(&self, k: usize, b: &[A], y: &mut [A]) {
        let _mv = h2_telemetry::span_labeled("matvec", format!("k={k}"));
        if k == 0 {
            return;
        }
        let plan = SweepPlan::whole(self);
        let width = exec::width();
        let mut sweep = Sweep::new(self, &plan, k, width);
        let sp = h2_telemetry::span("matvec.gather");
        sweep.gather(b);
        drop(sp);
        let mut phase_span = None;
        sweep.run(&Phase::ALL, |phase| {
            // Close the last phase's span before the next one opens.
            drop(phase_span.take());
            phase_span = Some(h2_telemetry::span(phase.span_name()));
        });
        drop(phase_span);
        let _sp = h2_telemetry::span("matvec.scatter");
        sweep.scatter(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_panels_handles_either_order_and_empty_panels() {
        let mut buf: Vec<u32> = (0..10).collect();
        let (src, dst) = split_panels(&mut buf, 1..3, 6..9);
        assert_eq!((&*src, &*dst), (&[1, 2][..], &[6, 7, 8][..]));
        let (src, dst) = split_panels(&mut buf, 6..9, 1..3);
        assert_eq!((&*src, &*dst), (&[6, 7, 8][..], &[1, 2][..]));
        // A rank-0 node's empty panel sits on a boundary of its neighbour.
        let (src, dst) = split_panels(&mut buf, 3..3, 3..5);
        assert_eq!((src.len(), dst.len()), (0, 2));
        let (src, dst) = split_panels(&mut buf, 3..5, 5..5);
        assert_eq!((src.len(), dst.len()), (2, 0));
    }
}
