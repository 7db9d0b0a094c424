//! Structural diagnostics for H² matrices: rank profiles, block statistics
//! and compression summaries — the quantities the paper's Fig. 2 visualizes
//! and its Discussion (§VI) reasons about.
//!
//! Block generation work is counted in the [`h2_telemetry`] registry under
//! `coupling_blocks`, `nearfield_blocks` and `kernel_evals`, so tests and
//! the serving benchmarks can assert batch amortization (each block
//! generated exactly once per batched apply) rather than infer it from
//! timings. Counting is always on and costs one relaxed atomic add per
//! generated block. For test assertions, open an
//! [`h2_telemetry::local_scope`]: it reads only the calling thread's
//! contribution, immune to parallel test interleaving. A sweep's helper
//! threads tally their blocks in plain integers that the calling thread
//! records after the join, so a scope around a product sees exactly that
//! product's work at any thread count.

use crate::h2matrix::H2Matrix;
use h2_cache::BlockKind;

/// Block generations and cached-tier requests counted in plain integers, to
/// be recorded into the telemetry counters (`coupling_blocks`,
/// `nearfield_blocks`, `kernel_evals`, `cache.hit`, `cache.miss`) by
/// whichever thread should own the counts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockTally {
    coupling_blocks: u64,
    nearfield_blocks: u64,
    kernel_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl BlockTally {
    /// Counts one generated block of the given family and shape.
    pub(crate) fn add(&mut self, kind: BlockKind, rows: usize, cols: usize) {
        match kind {
            BlockKind::Coupling => self.coupling_blocks += 1,
            BlockKind::Nearfield => self.nearfield_blocks += 1,
        }
        self.kernel_evals += (rows * cols) as u64;
    }

    /// Counts one request to the cached tier: a hit, or a miss that
    /// generated the block.
    pub(crate) fn add_cached(&mut self, hit: bool, kind: BlockKind, rows: usize, cols: usize) {
        if hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
            self.add(kind, rows, cols);
        }
    }

    /// Adds another tally's counts.
    pub(crate) fn merge(&mut self, other: BlockTally) {
        self.coupling_blocks += other.coupling_blocks;
        self.nearfield_blocks += other.nearfield_blocks;
        self.kernel_evals += other.kernel_evals;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Records the counts on the calling thread.
    pub(crate) fn record(self) {
        h2_telemetry::counter_add!("coupling_blocks", self.coupling_blocks);
        h2_telemetry::counter_add!("nearfield_blocks", self.nearfield_blocks);
        h2_telemetry::counter_add!("kernel_evals", self.kernel_evals);
        h2_telemetry::counter_add!("cache.hit", self.cache_hits);
        h2_telemetry::counter_add!("cache.miss", self.cache_misses);
    }
}

/// Records one block generation of the given family and shape.
#[inline]
pub(crate) fn record_block(kind: BlockKind, rows: usize, cols: usize) {
    let mut tally = BlockTally::default();
    tally.add(kind, rows, cols);
    tally.record();
}

/// Rank statistics for one tree level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelRankStats {
    /// Level (root = 0).
    pub level: usize,
    /// Number of nodes on this level.
    pub nodes: usize,
    /// Smallest node rank.
    pub min_rank: usize,
    /// Mean node rank.
    pub mean_rank: f64,
    /// Largest node rank.
    pub max_rank: usize,
}

/// Whole-matrix structural summary.
#[derive(Clone, Debug)]
pub struct StructureReport {
    /// Per-level rank statistics, root level first.
    pub levels: Vec<LevelRankStats>,
    /// Number of admissible (farfield) block pairs.
    pub farfield_pairs: usize,
    /// Number of nearfield leaf block pairs.
    pub nearfield_pairs: usize,
    /// Entries covered by farfield blocks (both orientations).
    pub farfield_entries: u64,
    /// Entries covered by nearfield blocks.
    pub nearfield_entries: u64,
    /// `n²` for reference.
    pub total_entries: u64,
}

impl StructureReport {
    /// Fraction of the matrix compressed into low-rank form.
    pub fn farfield_fraction(&self) -> f64 {
        self.farfield_entries as f64 / self.total_entries as f64
    }

    /// Effective compression: stored generator bytes vs. dense bytes.
    pub fn compression_ratio(&self, generator_bytes: usize) -> f64 {
        (self.total_entries as f64 * 8.0) / generator_bytes.max(1) as f64
    }
}

/// Computes the structural summary of an H² matrix.
pub fn structure_report(h2: &H2Matrix) -> StructureReport {
    let tree = h2.tree();
    let lists = h2.lists();
    let levels = tree
        .levels()
        .iter()
        .enumerate()
        .map(|(level, nodes)| {
            let ranks: Vec<usize> = nodes.iter().map(|&i| h2.rank(i)).collect();
            LevelRankStats {
                level,
                nodes: nodes.len(),
                min_rank: ranks.iter().copied().min().unwrap_or(0),
                mean_rank: ranks.iter().sum::<usize>() as f64 / ranks.len().max(1) as f64,
                max_rank: ranks.iter().copied().max().unwrap_or(0),
            }
        })
        .collect();
    let far: u64 = lists
        .interaction_pairs
        .iter()
        .map(|&(i, j)| 2 * (tree.node(i).len() as u64) * (tree.node(j).len() as u64))
        .sum();
    let near: u64 = lists
        .nearfield_pairs
        .iter()
        .map(|&(i, j)| {
            let e = (tree.node(i).len() as u64) * (tree.node(j).len() as u64);
            if i == j {
                e
            } else {
                2 * e
            }
        })
        .sum();
    let n = h2.n() as u64;
    StructureReport {
        levels,
        farfield_pairs: lists.interaction_pairs.len(),
        nearfield_pairs: lists.nearfield_pairs.len(),
        farfield_entries: far,
        nearfield_entries: near,
        total_entries: n * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, H2Config, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_points::gen;
    use std::sync::Arc;

    fn sample_h2(n: usize) -> H2Matrix {
        let pts = gen::uniform_cube(n, 3, 5);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    }

    #[test]
    fn entries_partition_n_squared() {
        let h2 = sample_h2(2500);
        let r = structure_report(&h2);
        assert_eq!(
            r.farfield_entries + r.nearfield_entries,
            r.total_entries,
            "block lists must tile the matrix"
        );
        assert!(r.farfield_fraction() > 0.2, "too little compressed");
    }

    #[test]
    fn level_stats_cover_all_nodes() {
        let h2 = sample_h2(700);
        let r = structure_report(&h2);
        let total: usize = r.levels.iter().map(|l| l.nodes).sum();
        assert_eq!(total, h2.tree().node_count());
        for l in &r.levels {
            assert!(l.min_rank <= l.max_rank);
            assert!(l.mean_rank <= l.max_rank as f64 + 1e-12);
        }
    }

    #[test]
    fn compression_ratio_beats_dense() {
        let h2 = sample_h2(2000);
        let r = structure_report(&h2);
        let ratio = r.compression_ratio(h2.memory_report().generators());
        assert!(ratio > 5.0, "compression only {ratio:.1}x");
    }
}
