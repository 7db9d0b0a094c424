//! Phase times inside an apply, obtained without editing program code.
//!
//! After the timed operations, the operator's public structure (`tree()`,
//! `lists()`, `ranks()`, the two block stores, the cache) is walked and the
//! public per-block entry points are timed over the workload's real
//! block-shape population. What a replay is *not*: it runs the blocks in
//! list order right after one another (cold-ordered: no upward/downward
//! sweep in between warms or evicts anything), and every byte rate is
//! *computed* from matrix sizes, so cache misses are not counted.

use crate::metrics::Metrics;
use crate::stats::median_secs;
use crate::trace::Recorder;
use h2_cache::BlockKind;
use h2_core::H2MatrixS;
use h2_linalg::{Matrix, MatrixS, Scalar};
use h2_points::NodeId;
use std::hint::black_box;

const REPS: usize = 3;

/// Deterministic input in `[-1, 1]`; the values only need to be finite.
fn filler(len: usize, salt: usize) -> Vec<f64> {
    h2_core::error_est::probe_vector(len, salt as u64)
}

fn panel(rows: usize, k: usize, salt: usize) -> Matrix {
    Matrix::from_col_major(rows, k, filler(rows * k, salt))
}

/// Sweeps 3 and 5 of the apply, replayed with `k` right-hand-side columns.
///
/// With a cache and `k > 1` the blocks are fetched once per pair and applied
/// to all columns in both directions, as the panel product does; otherwise
/// every node applies its list column by column, as the vector product does.
fn sweeps<S: Scalar>(h2: &H2MatrixS<S>, k: usize, rec: &mut Recorder, m: &mut Metrics) {
    let tree = h2.tree();
    let lists = h2.lists();
    let n_nodes = tree.node_count();
    let q: Vec<Matrix> = (0..n_nodes).map(|i| panel(h2.rank(i), k, i)).collect();
    let bp = panel(h2.n(), k, 7);
    let cache = h2.cache().map(|c| &**c);
    let fetch_once = cache.filter(|_| k > 1);

    let horizontal = rec.span("h2-core", "replay.horizontal", |_| {
        median_secs(REPS, || {
            let mut g: Vec<Matrix> = (0..n_nodes).map(|i| Matrix::zeros(h2.rank(i), k)).collect();
            if let Some(cache) = fetch_once {
                for &(i, j) in &lists.interaction_pairs {
                    let block = cache.get_or_generate_at(
                        BlockKind::Coupling,
                        i,
                        j,
                        h2.pair_epoch(i, j),
                        || h2.generate_block(BlockKind::Coupling, i, j),
                    );
                    let (gi, gj) = g.split_at_mut(j);
                    for c in 0..k {
                        block.matvec_acc(q[j].col(c), gi[i].col_mut(c));
                        block.matvec_t_acc(q[i].col(c), gj[0].col_mut(c));
                    }
                }
            } else {
                for (i, gi) in g.iter_mut().enumerate() {
                    for &j in &lists.interaction[i] {
                        for c in 0..k {
                            h2.apply_coupling_with(cache, false, i, j, q[j].col(c), gi.col_mut(c));
                        }
                    }
                }
            }
            black_box(&g);
        })
    });
    m.set("core.horizontal_ms", horizontal * 1e3);

    let nearfield = rec.span("h2-core", "replay.nearfield", |_| {
        median_secs(REPS, || {
            let mut y = Matrix::zeros(h2.n(), k);
            if let Some(cache) = fetch_once {
                for &(i, j) in &lists.nearfield_pairs {
                    let (ni, nj) = (tree.node(i), tree.node(j));
                    let block = cache.get_or_generate_at(
                        BlockKind::Nearfield,
                        i,
                        j,
                        h2.pair_epoch(i, j),
                        || h2.generate_block(BlockKind::Nearfield, i, j),
                    );
                    for c in 0..k {
                        let col = y.col_mut(c);
                        block.matvec_acc(&bp.col(c)[nj.start..nj.end], &mut col[ni.start..ni.end]);
                        if i != j {
                            block.matvec_t_acc(
                                &bp.col(c)[ni.start..ni.end],
                                &mut col[nj.start..nj.end],
                            );
                        }
                    }
                }
            } else {
                for &i in tree.leaves() {
                    let ni = tree.node(i);
                    for &j in &lists.nearfield[i] {
                        let nj = tree.node(j);
                        for c in 0..k {
                            let x = &bp.col(c)[nj.start..nj.end];
                            let out = &mut y.col_mut(c)[ni.start..ni.end];
                            h2.apply_nearfield_with(cache, false, i, j, x, out);
                        }
                    }
                }
            }
            black_box(&y);
        })
    });
    m.set("core.nearfield_ms", nearfield * 1e3);
}

/// `y += B x` / `x += Bᵀ y` over a block population; returns the two median
/// pass times in seconds.
fn gemv_passes<S: Scalar>(blocks: &[&MatrixS<S>]) -> (f64, f64) {
    let rows = blocks.iter().map(|b| b.nrows()).max().unwrap_or(0);
    let cols = blocks.iter().map(|b| b.ncols()).max().unwrap_or(0);
    let (x, mut y) = (filler(cols, 1), vec![0.0f64; rows]);
    let fwd = median_secs(REPS, || {
        for b in blocks {
            b.matvec_acc(&x[..b.ncols()], &mut y[..b.nrows()]);
        }
        black_box(&y);
    });
    let (yt, mut xt) = (filler(rows, 2), vec![0.0f64; cols]);
    let bwd = median_secs(REPS, || {
        for b in blocks {
            b.matvec_t_acc(&yt[..b.nrows()], &mut xt[..b.ncols()]);
        }
        black_box(&xt);
    });
    (fwd, bwd)
}

/// Computed from shapes: `bytes()` would report 0 for mmap-backed blocks.
fn bytes_of<S: Scalar>(blocks: &[&MatrixS<S>]) -> f64 {
    blocks
        .iter()
        .map(|b| b.nrows() * b.ncols() * S::BYTES)
        .sum::<usize>() as f64
}

/// Replays every layer the apply touches and records the per-layer rates.
/// `k` is the number of right-hand-side columns of the workload's operation.
pub fn run<S: Scalar>(h2: &H2MatrixS<S>, k: usize, rec: &mut Recorder, m: &mut Metrics) {
    let tree = h2.tree();
    let lists = h2.lists();
    let pts = tree.points();
    sweeps(h2, k, rec, m);

    // h2-kernels, fused: the nearfield as the on-the-fly vector path runs it.
    let x = filler(h2.n(), 3);
    let mut y = vec![0.0f64; h2.n()];
    let fused_evals: usize = tree
        .leaves()
        .iter()
        .flat_map(|&i| lists.nearfield[i].iter().map(move |&j| (i, j)))
        .map(|(i, j)| tree.node(i).len() * tree.node(j).len())
        .sum();
    let fused = rec.span("h2-kernels", "replay.fused", |_| {
        median_secs(REPS, || {
            for &i in tree.leaves() {
                let ni = tree.node(i);
                for &j in &lists.nearfield[i] {
                    let nj = tree.node(j);
                    h2_kernels::apply_block_s(
                        h2.kernel(),
                        pts,
                        tree.node_indices(i),
                        tree.node_indices(j),
                        &x[nj.start..nj.end],
                        &mut y[ni.start..ni.end],
                    );
                }
            }
            black_box(&y);
        })
    });
    m.set("kernels.fused_evals_per_s", fused_evals as f64 / fused);

    // h2-kernels, materializing: every listed block generated as the normal
    // builder and the cache miss path generate it. Kept only when the
    // operator stores no blocks but does block algebra (the cached tier).
    let pairs: Vec<(BlockKind, NodeId, NodeId)> = lists
        .interaction_pairs
        .iter()
        .map(|&(i, j)| (BlockKind::Coupling, i, j))
        .chain(
            lists
                .nearfield_pairs
                .iter()
                .map(|&(i, j)| (BlockKind::Nearfield, i, j)),
        )
        .collect();
    let keep = h2.cache().is_some();
    let mut generated: Vec<MatrixS<S>> = Vec::new();
    let mut evals = 0usize;
    let t = std::time::Instant::now();
    rec.span("h2-kernels", "replay.materialize", |_| {
        for &(kind, i, j) in &pairs {
            let b = h2.generate_block(kind, i, j);
            evals += b.nrows() * b.ncols();
            if keep {
                generated.push(b);
            } else {
                black_box(&b);
            }
        }
    });
    m.set(
        "kernels.materialize_evals_per_s",
        evals as f64 / t.elapsed().as_secs_f64(),
    );

    // h2-linalg on the block population the operation really applies.
    let stored: Vec<&MatrixS<S>> = h2
        .coupling_store()
        .blocks()
        .into_iter()
        .chain(h2.nearfield_store().blocks())
        .flatten()
        .collect();
    let blocks: Vec<&MatrixS<S>> = if stored.is_empty() {
        generated.iter().collect()
    } else {
        stored
    };
    if !blocks.is_empty() {
        let bytes = bytes_of(&blocks);
        let (fwd, bwd) = rec.span("h2-linalg", "replay.gemv", |_| gemv_passes(&blocks));
        m.set("linalg.gemv_gbps", bytes / fwd / 1e9);
        m.set("linalg.gemv_t_gbps", bytes / bwd / 1e9);

        let rows = blocks.iter().map(|b| b.nrows()).max().unwrap_or(0);
        let cols = blocks.iter().map(|b| b.ncols()).max().unwrap_or(0);
        let (xp, mut yp) = (panel(cols, 8, 4), Matrix::zeros(rows, 8));
        let gemm = rec.span("h2-linalg", "replay.gemm_k8", |_| {
            median_secs(REPS, || {
                for b in &blocks {
                    for c in 0..8 {
                        b.matvec_acc(&xp.col(c)[..b.ncols()], &mut yp.col_mut(c)[..b.nrows()]);
                    }
                }
                black_box(&yp);
            })
        });
        let flops: f64 = blocks
            .iter()
            .map(|b| 2.0 * 8.0 * (b.nrows() * b.ncols()) as f64)
            .sum();
        m.set("linalg.gemm_k8_gflops", flops / gemm / 1e9);
    }

    // h2-linalg on leaf bases and transfers (sweeps 1, 2, 4 and the U_i g_i
    // term of sweep 5): each matrix is read once upward and once downward.
    let basis: Vec<&MatrixS<S>> = (0..tree.node_count())
        .flat_map(|i| [h2.leaf_basis(i), h2.transfer(i)])
        .filter(|b| !b.is_empty())
        .collect();
    if !basis.is_empty() {
        let (fwd, bwd) = rec.span("h2-linalg", "replay.basis_gemv", |_| gemv_passes(&basis));
        m.set(
            "linalg.basis_gemv_gbps",
            2.0 * bytes_of(&basis) / (fwd + bwd) / 1e9,
        );
    }
}
