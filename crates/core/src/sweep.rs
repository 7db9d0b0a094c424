//! The five-sweep engine: the paper's Algorithm 2 (gather → upward →
//! horizontal → downward → leaf + nearfield → scatter), written once.
//!
//! [`H2MatrixS::matvec`] is the `k = 1` call and [`H2MatrixS::matmat`] the
//! any-`k` call of one function that runs the phases of a [`Sweep`] over the
//! whole-tree [`SweepPlan`]; `h2-dist`'s shard and coordinator ranks run
//! the same four phase methods on the plan of the nodes they own, with
//! their sends and receives between the phases.
//!
//! ## The order invariant
//!
//! Both horizontal sweeps walk the *unique* block pairs `(i ≤ j)` in the
//! lexicographic order of the sorted pair lists and apply each block in
//! both directions (`out_i += B x_j`, `out_j += Bᵀ x_i`) while it is live.
//! A target `t` therefore receives its contributions in ascending
//! neighbour order — every `(a, t)` with `a < t`, then `(t, t)`, then every
//! `(t, b)` — for any number of columns and for any subset of owned nodes:
//! a rank's schedule is the same list filtered to the pairs with an owned
//! endpoint, with only the owned directions flagged. That is what makes a
//! panel column bitwise equal to the vector product and a sharded sweep
//! bitwise equal to the serial one. A block is touched once per sweep:
//! streamed from memory once, probed in the cache once, or generated once.
//!
//! ## Two arithmetic classes
//!
//! Blocks that exist in the storage scalar `S` (resident, mapped, cached)
//! are applied with `matvec_acc` / `matvec_t_acc`. With no storage tier
//! the block is generated in `f64` into a reusable scratch buffer and
//! applied with one local `f64` accumulator per output entry, summed in
//! ascending source order — the arithmetic of the fused kernel application
//! ([`h2_kernels::Kernel::apply_block`]), so on-the-fly results do not
//! depend on whether a block was ever materialized.

use crate::h2matrix::H2MatrixS;
use crate::proxy::coupling_block_into;
use h2_cache::{BlockCache, BlockKind};
use h2_linalg::{MatrixS, Scalar};
use h2_points::admissibility::BlockLists;
use h2_points::NodeId;
use std::ops::Range;
use std::sync::Arc;

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

/// What one rank executes: the nodes it owns, by level and as leaves, the
/// pair schedule that follows from them, and the flat panel layout.
///
/// Derived per apply from the operator's tree, lists and ranks in
/// O(nodes); the pair schedule is a filter over the sorted lists and is
/// never materialized.
pub struct SweepPlan<'a> {
    levels: &'a [Vec<NodeId>],
    leaves: &'a [NodeId],
    lists: &'a BlockLists,
    /// Prefix sums of the ranks: node `i`'s coefficient rows.
    row_off: Vec<usize>,
    owned: Vec<bool>,
}

impl<'a> SweepPlan<'a> {
    /// The plan of the rank that owns `levels` (absolute tree levels, root
    /// level first) and, among them, `leaves`.
    pub fn new<S: Scalar>(
        h2: &'a H2MatrixS<S>,
        levels: &'a [Vec<NodeId>],
        leaves: &'a [NodeId],
    ) -> Self {
        let mut row_off = Vec::with_capacity(h2.ranks.len() + 1);
        let mut total = 0;
        row_off.push(0);
        for &r in &h2.ranks {
            total += r;
            row_off.push(total);
        }
        let mut owned = vec![false; h2.ranks.len()];
        for &i in levels.iter().flatten() {
            owned[i] = true;
        }
        SweepPlan {
            levels,
            leaves,
            lists: &h2.lists,
            row_off,
            owned,
        }
    }

    /// The whole-tree plan of the serial product.
    pub fn whole<S: Scalar>(h2: &'a H2MatrixS<S>) -> Self {
        Self::new(h2, h2.tree.levels(), h2.tree.leaves())
    }

    /// Where node `i`'s `rank_i × k` column-major panel sits in the `q` and
    /// `g` workspaces.
    pub fn q_range(&self, i: NodeId, k: usize) -> Range<usize> {
        self.row_off[i] * k..self.row_off[i + 1] * k
    }

    fn steps(&self, pairs: &'a [(NodeId, NodeId)]) -> impl Iterator<Item = PairStep> + '_ {
        pairs.iter().enumerate().filter_map(move |(slot, &(i, j))| {
            let (fwd, rev) = (self.owned[i], self.owned[j] && i != j);
            (fwd || rev).then_some(PairStep {
                slot,
                i,
                j,
                fwd,
                rev,
            })
        })
    }

    /// The coupling schedule of the horizontal sweep.
    pub fn coupling(&self) -> impl Iterator<Item = PairStep> + '_ {
        self.steps(&self.lists.interaction_pairs)
    }

    /// The nearfield schedule of the leaf sweep.
    pub fn nearfield(&self) -> impl Iterator<Item = PairStep> + '_ {
        self.steps(&self.lists.nearfield_pairs)
    }

    /// Every block this rank touches, in the order its sweeps first touch
    /// it, with its size in bytes were it materialized in `S` — the cache
    /// warm-up order.
    pub fn block_schedule<'s, S: Scalar>(
        &'s self,
        h2: &'s H2MatrixS<S>,
    ) -> impl Iterator<Item = (BlockKind, NodeId, NodeId, usize)> + 's {
        let bytes = move |kind, i, j| {
            let (rows, cols) = h2.block_shape(kind, i, j);
            (kind, i, j, rows * cols * S::BYTES)
        };
        self.coupling()
            .map(move |st| bytes(BlockKind::Coupling, st.i, st.j))
            .chain(
                self.nearfield()
                    .map(move |st| bytes(BlockKind::Nearfield, st.i, st.j)),
            )
    }
}

/// A block as one of the three tiers serves it.
enum Fetched<'a, S: Scalar> {
    /// Borrowed from a materialized (owned or mapped) store.
    Resident(&'a MatrixS<S>),
    /// Shared out of the budgeted cache (generated on a miss).
    Cached(Arc<MatrixS<S>>),
    /// Generated in `f64` into the scratch buffer, column-major with
    /// this many rows.
    Scratch(usize),
}

/// The single three-tier fetch: resident-or-mapped, then cached, then
/// generated into `scratch`. `(i, j)` is a listed canonical pair.
fn fetch<'a, S: Scalar>(
    h2: &'a H2MatrixS<S>,
    cache: Option<&BlockCache<S>>,
    kind: BlockKind,
    (i, j): (NodeId, NodeId),
    resident: Option<&'a MatrixS<S>>,
    scratch: &mut Vec<f64>,
) -> Fetched<'a, S> {
    if let Some(block) = resident {
        return Fetched::Resident(block);
    }
    if let Some(cache) = cache {
        let generate = || h2.generate_block(kind, i, j);
        return Fetched::Cached(cache.get_or_generate_at(
            kind,
            i,
            j,
            h2.pair_epoch(i, j),
            generate,
        ));
    }
    let (rows, cols) = h2.block_shape(kind, i, j);
    scratch.clear();
    scratch.resize(rows * cols, 0.0);
    let pts = h2.tree.points();
    match kind {
        BlockKind::Coupling => coupling_block_into(
            h2.kernel.as_ref(),
            pts,
            &h2.proxies[i],
            &h2.proxies[j],
            scratch,
        ),
        BlockKind::Nearfield => {
            crate::diagnostics::record_nearfield_block(rows, cols);
            h2.kernel.eval_block_into(
                pts,
                h2.tree.node_indices(i),
                h2.tree.node_indices(j),
                scratch,
            );
        }
    }
    Fetched::Scratch(rows)
}

impl<S: Scalar> Fetched<'_, S> {
    /// `y += B x`, or `y += Bᵀ x` when `transposed`.
    fn apply<A: Scalar>(
        &self,
        scratch: &[f64],
        acc: &mut Vec<f64>,
        transposed: bool,
        x: &[A],
        y: &mut [A],
    ) {
        let block = match self {
            Fetched::Resident(b) => *b,
            Fetched::Cached(b) => b.as_ref(),
            Fetched::Scratch(rows) if transposed => return dot_apply_t(scratch, *rows, x, y),
            Fetched::Scratch(rows) => return dot_apply(scratch, *rows, acc, x, y),
        };
        if transposed {
            block.matvec_t_acc(x, y);
        } else {
            block.matvec_acc(x, y);
        }
    }
}

/// `y[r] += Σ_c block[r, c]·x[c]` for a column-major `f64` block with
/// `rows` rows: one accumulator per row, columns ascending. The columns
/// are swept into the zeroed `acc` vector (four per pass), so the loop
/// vectorizes over rows while every row's sum keeps its order.
fn dot_apply<A: Scalar>(block: &[f64], rows: usize, acc: &mut Vec<f64>, x: &[A], y: &mut [A]) {
    debug_assert_eq!(block.len(), rows * x.len());
    debug_assert_eq!(y.len(), rows);
    if rows == 0 {
        return;
    }
    acc.clear();
    acc.resize(rows, 0.0);
    let mut groups = block.chunks_exact(4 * rows);
    let mut xs = x.chunks_exact(4);
    for (group, x4) in (&mut groups).zip(&mut xs) {
        let [x0, x1, x2, x3] = [0, 1, 2, 3].map(|c| x4[c].to_f64());
        let (c01, c23) = group.split_at(2 * rows);
        let ((c0, c1), (c2, c3)) = (c01.split_at(rows), c23.split_at(rows));
        for ((((s, &a), &b), &c), &d) in acc.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
            *s = (((*s + a * x0) + b * x1) + c * x2) + d * x3;
        }
    }
    for (col, xc) in groups.remainder().chunks_exact(rows).zip(xs.remainder()) {
        let xc = xc.to_f64();
        for (s, &b) in acc.iter_mut().zip(col) {
            *s += b * xc;
        }
    }
    for (yr, &s) in y.iter_mut().zip(acc.iter()) {
        *yr += A::from_f64(s);
    }
}

/// `y[c] += Σ_r block[r, c]·x[r]`: one accumulator per column, rows
/// ascending, eight columns in flight so the eight serial sums overlap.
/// Every kernel here is radial (`K(x, y) = φ(‖x − y‖²)`, bitwise
/// symmetric), so this is exactly the forward application of the mirrored
/// block.
fn dot_apply_t<A: Scalar>(block: &[f64], rows: usize, x: &[A], y: &mut [A]) {
    debug_assert_eq!(block.len(), rows * y.len());
    debug_assert_eq!(x.len(), rows);
    if rows == 0 {
        // No source rows: every sum is the empty sum.
        y.iter_mut().for_each(|yc| *yc += A::from_f64(0.0));
        return;
    }
    const W: usize = 8;
    let mut groups = block.chunks_exact(W * rows);
    let mut ys = y.chunks_exact_mut(W);
    for (cols, ys) in (&mut groups).zip(&mut ys) {
        let mut sums = [0.0f64; W];
        for (r, xr) in x.iter().enumerate() {
            let xr = xr.to_f64();
            for (w, s) in sums.iter_mut().enumerate() {
                *s += cols[w * rows + r] * xr;
            }
        }
        for (yc, &s) in ys.iter_mut().zip(&sums) {
            *yc += A::from_f64(s);
        }
    }
    let tail = groups.remainder().chunks_exact(rows);
    for (col, yc) in tail.zip(ys.into_remainder()) {
        let mut s = 0.0;
        for (&b, xr) in col.iter().zip(x) {
            s += b * xr.to_f64();
        }
        *yc += A::from_f64(s);
    }
}

/// `buf[src]` read-only beside `buf[dst]` mutable; the ranges are panels
/// of two different nodes and never overlap.
fn split_panels<A>(buf: &mut [A], src: Range<usize>, dst: Range<usize>) -> (&[A], &mut [A]) {
    if src.end <= dst.start {
        let (lo, hi) = buf.split_at_mut(dst.start);
        (&lo[src], &mut hi[..dst.end - dst.start])
    } else {
        assert!(dst.end <= src.start, "node panels overlap");
        let (lo, hi) = buf.split_at_mut(src.start);
        (&hi[..src.end - src.start], &mut lo[dst])
    }
}

/// Column `c` of a `rows × k` column-major panel that starts at `base`.
fn col(base: usize, rows: usize, c: usize) -> Range<usize> {
    base + c * rows..base + (c + 1) * rows
}

/// One product in flight: the flat workspace of `k` right-hand sides and
/// the four phases that fill it. Every buffer holds per-node column-major
/// panels: node `i`'s coefficients at [`SweepPlan::q_range`] in `q` / `g`,
/// leaf `l`'s rows at `start·k..end·k` in `b` / `y` (tree order). Buffers
/// are public so a distributed rank can send panels out of them and
/// receive panels into them between phases.
pub struct Sweep<'a, S: Scalar, A: Scalar> {
    h2: &'a H2MatrixS<S>,
    plan: &'a SweepPlan<'a>,
    cache: Option<&'a BlockCache<S>>,
    k: usize,
    /// Right-hand sides, gathered into tree order.
    pub b: Vec<A>,
    /// Results in tree order.
    pub y: Vec<A>,
    /// Upward coefficients `q_i`.
    pub q: Vec<A>,
    /// Downward coefficients `g_i`.
    pub g: Vec<A>,
    /// One column of `R_i g_p` (downward sweep).
    add: Vec<A>,
    /// Row accumulators of the generated tier.
    acc: Vec<f64>,
    /// The one generated block alive at a time.
    scratch: Vec<f64>,
}

impl<'a, S: Scalar, A: Scalar> Sweep<'a, S, A> {
    /// A zeroed workspace for `k` right-hand sides. `cache` is the tier
    /// between the stores and the kernel this rank fetches through.
    pub fn new(
        h2: &'a H2MatrixS<S>,
        plan: &'a SweepPlan<'a>,
        cache: Option<&'a BlockCache<S>>,
        k: usize,
    ) -> Self {
        let n = h2.n();
        let coeffs = plan.row_off[h2.ranks.len()] * k;
        let max_rank = h2.ranks.iter().copied().max().unwrap_or(0);
        // Only the generated tier needs scratch; sized once for the largest
        // block of the schedule so the sweeps never reallocate.
        let generates = cache.is_none() && !h2.coupling.is_materialized();
        let shapes = plan
            .block_schedule(h2)
            .map(|(kind, i, j, _)| h2.block_shape(kind, i, j));
        let (max_entries, max_rows) = if generates {
            shapes.fold((0, 0), |(e, r), (m, n)| (e.max(m * n), r.max(m)))
        } else {
            (0, 0)
        };
        Sweep {
            h2,
            plan,
            cache,
            k,
            b: vec![A::ZERO; n * k],
            y: vec![A::ZERO; n * k],
            q: vec![A::ZERO; coeffs],
            g: vec![A::ZERO; coeffs],
            add: vec![A::ZERO; max_rank],
            acc: Vec::with_capacity(max_rows),
            scratch: Vec::with_capacity(max_entries),
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
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        for level in plan.levels.iter().rev() {
            for &i in level {
                let nd = h2.tree.node(i);
                let (ri, qi) = (h2.ranks[i], plan.q_range(i, k));
                if nd.is_leaf() {
                    for c in 0..k {
                        let bi = &self.b[col(nd.start * k, nd.len(), c)];
                        h2.bases[i].matvec_t_acc(bi, &mut self.q[col(qi.start, ri, c)]);
                    }
                    continue;
                }
                for &ch in &nd.children {
                    let transfer = &h2.transfers[ch];
                    if transfer.is_empty() {
                        continue;
                    }
                    let rc = h2.ranks[ch];
                    let (qc, qi) = split_panels(&mut self.q, plan.q_range(ch, k), qi.clone());
                    for c in 0..k {
                        transfer.matvec_t_acc(&qc[col(0, rc, c)], &mut qi[col(0, ri, c)]);
                    }
                }
            }
        }
    }

    /// Sweep 3: `g_i += B_{i,j} q_j` and `g_j += B_{i,j}ᵀ q_i` over the
    /// coupling schedule. Sources that are not owned must already hold
    /// their received `q`.
    pub fn horizontal(&mut self) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        let resident = h2.coupling.blocks();
        for st in plan.coupling() {
            let block = fetch(
                h2,
                self.cache,
                BlockKind::Coupling,
                (st.i, st.j),
                resident.map(|b| &b[st.slot]),
                &mut self.scratch,
            );
            let (ri, rj) = (h2.ranks[st.i], h2.ranks[st.j]);
            let (oi, oj) = (plan.q_range(st.i, k).start, plan.q_range(st.j, k).start);
            for c in 0..k {
                let (ci, cj) = (col(oi, ri, c), col(oj, rj, c));
                if st.fwd {
                    let (x, y) = (&self.q[cj.clone()], &mut self.g[ci.clone()]);
                    block.apply(&self.scratch, &mut self.acc, false, x, y);
                }
                if st.rev {
                    let (x, y) = (&self.q[ci], &mut self.g[cj]);
                    block.apply(&self.scratch, &mut self.acc, true, x, y);
                }
            }
        }
    }

    /// Sweep 4: `g_i += R_i g_p` over the owned nodes, shallowest level
    /// first. A parent that is not owned must already hold its received
    /// `g`.
    pub fn downward(&mut self) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        for level in plan.levels {
            for &i in level {
                let Some(p) = h2.tree.node(i).parent else {
                    continue;
                };
                let (ri, rp) = (h2.ranks[i], h2.ranks[p]);
                let transfer = &h2.transfers[i];
                let (gp, gi) = split_panels(&mut self.g, plan.q_range(p, k), plan.q_range(i, k));
                let add = &mut self.add[..ri];
                for c in 0..k {
                    // Into a zeroed column first: `R_i g_p` is summed on
                    // its own before it meets the horizontal sum.
                    add.fill(A::ZERO);
                    if !transfer.is_empty() {
                        transfer.matvec_acc(&gp[col(0, rp, c)], add);
                    }
                    for (a, &v) in gi[col(0, ri, c)].iter_mut().zip(add.iter()) {
                        *a += v;
                    }
                }
            }
        }
    }

    /// Sweep 5: `y_i = U_i g_i` at the owned leaves, then `y_i += N_{i,j}
    /// b_j` and `y_j += N_{i,j}ᵀ b_i` over the nearfield schedule. Leaves
    /// that are not owned must already hold their received `b`.
    pub fn leaf(&mut self) {
        let (h2, plan, k) = (self.h2, self.plan, self.k);
        let tree = &h2.tree;
        for &i in plan.leaves {
            let nd = tree.node(i);
            let (ri, gi) = (h2.ranks[i], plan.q_range(i, k).start);
            for c in 0..k {
                let yi = &mut self.y[col(nd.start * k, nd.len(), c)];
                h2.bases[i].matvec_acc(&self.g[col(gi, ri, c)], yi);
            }
        }
        let resident = h2.nearfield.blocks();
        for st in plan.nearfield() {
            let block = fetch(
                h2,
                self.cache,
                BlockKind::Nearfield,
                (st.i, st.j),
                resident.map(|b| &b[st.slot]),
                &mut self.scratch,
            );
            let (ni, nj) = (tree.node(st.i), tree.node(st.j));
            for c in 0..k {
                let ci = col(ni.start * k, ni.len(), c);
                let cj = col(nj.start * k, nj.len(), c);
                if st.fwd {
                    let (x, y) = (&self.b[cj.clone()], &mut self.y[ci.clone()]);
                    block.apply(&self.scratch, &mut self.acc, false, x, y);
                }
                if st.rev {
                    let (x, y) = (&self.b[ci], &mut self.y[cj]);
                    block.apply(&self.scratch, &mut self.acc, true, x, y);
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

    /// `y += B x` for the listed block of the *ordered* pair `(i, j)`
    /// (`Bᵀ` of the canonical block when `i > j`), fetched through the
    /// sweeps' three tiers with `cache` as the middle one.
    pub(crate) fn apply_block_with<A: Scalar>(
        &self,
        cache: Option<&BlockCache<S>>,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        x: &[A],
        y: &mut [A],
    ) {
        let (lo, hi) = (i.min(j), i.max(j));
        let resident = match kind {
            BlockKind::Coupling => self.coupling.block(lo, hi),
            BlockKind::Nearfield => self.nearfield.block(lo, hi),
        };
        let (mut scratch, mut acc) = (Vec::new(), Vec::new());
        let resident = resident.map(|(block, _)| block);
        let block = fetch(self, cache, kind, (lo, hi), resident, &mut scratch);
        block.apply(&scratch, &mut acc, i > j, x, y);
    }

    /// `Y = Â B` for `k` right-hand sides: `b` and `y` are `n × k`
    /// column-major in the original point order; `y` is overwritten.
    pub(crate) fn apply_panel<A: Scalar>(&self, k: usize, b: &[A], y: &mut [A]) {
        let _mv = h2_telemetry::span_labeled("matvec", format!("k={k}"));
        if k == 0 {
            return;
        }
        let plan = SweepPlan::whole(self);
        let mut sweep = Sweep::new(self, &plan, self.cache.as_deref(), k);
        let sp = h2_telemetry::span("matvec.gather");
        sweep.gather(b);
        drop(sp);
        let sp = h2_telemetry::span("matvec.upward");
        sweep.upward();
        drop(sp);
        let sp = h2_telemetry::span("matvec.horizontal");
        sweep.horizontal();
        drop(sp);
        let sp = h2_telemetry::span("matvec.downward");
        sweep.downward();
        drop(sp);
        let sp = h2_telemetry::span("matvec.leaf");
        sweep.leaf();
        drop(sp);
        let _sp = h2_telemetry::span("matvec.scatter");
        sweep.scatter(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_kernels::{apply_block_s, kernel_matrix, Exponential};
    use h2_points::gen;

    /// The generated tier's applies must reproduce the fused kernel
    /// application bit for bit, in both directions, for every shape the
    /// column/row grouping can meet (multiples of the group width, tails,
    /// empty sides) and for both accumulator scalars.
    fn assert_matches_fused<A: Scalar>() {
        let pts = gen::uniform_cube(64, 3, 3);
        for (m, n) in [(0, 5), (5, 0), (1, 1), (3, 4), (7, 9), (16, 8), (19, 23)] {
            let rows: Vec<usize> = (0..m).collect();
            let cols: Vec<usize> = (30..30 + n).collect();
            let block = kernel_matrix(&Exponential, &pts, &rows, &cols);
            let x: Vec<A> = (0..n)
                .map(|c| A::from_f64((c as f64 * 0.7).sin()))
                .collect();
            let xt: Vec<A> = (0..m)
                .map(|r| A::from_f64((r as f64 * 1.3).cos()))
                .collect();

            let mut fused = vec![A::from_f64(0.25); m];
            apply_block_s(&Exponential, &pts, &rows, &cols, &x, &mut fused);
            let mut ours = vec![A::from_f64(0.25); m];
            dot_apply(block.as_slice(), m, &mut Vec::new(), &x, &mut ours);
            assert_eq!(ours, fused, "forward {m}x{n}");

            let mut fused_t = vec![A::from_f64(-0.5); n];
            apply_block_s(&Exponential, &pts, &cols, &rows, &xt, &mut fused_t);
            let mut ours_t = vec![A::from_f64(-0.5); n];
            dot_apply_t(block.as_slice(), m, &xt, &mut ours_t);
            assert_eq!(ours_t, fused_t, "transposed {m}x{n}");
        }
    }

    #[test]
    fn generated_tier_arithmetic_equals_the_fused_kernel_application() {
        assert_matches_fused::<f64>();
        assert_matches_fused::<f32>();
    }

    #[test]
    fn split_panels_handles_either_order_and_empty_panels() {
        let mut buf: Vec<u32> = (0..10).collect();
        let (src, dst) = split_panels(&mut buf, 1..3, 6..9);
        assert_eq!((src, &*dst), (&[1, 2][..], &[6, 7, 8][..]));
        let (src, dst) = split_panels(&mut buf, 6..9, 1..3);
        assert_eq!((src, &*dst), (&[6, 7, 8][..], &[1, 2][..]));
        // A rank-0 node's empty panel sits on a boundary of its neighbour.
        let (src, dst) = split_panels(&mut buf, 3..3, 3..5);
        assert_eq!((src.len(), dst.len()), (0, 2));
        let (src, dst) = split_panels(&mut buf, 3..5, 5..5);
        assert_eq!((src.len(), dst.len()), (2, 0));
    }
}
