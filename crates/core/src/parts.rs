//! Decomposition of a built [`H2MatrixS`] into plain-data parts and validated
//! reassembly — the substrate the `h2-serve` persistence codec serializes.
//!
//! The parts deliberately exclude two things a file cannot carry:
//!
//! - the **kernel** (a trait object): the loader supplies it and the codec
//!   verifies a fingerprint;
//! - the **block lists**: they are a pure function of the tree and `eta`, so
//!   [`H2MatrixS::from_parts`] recomputes them with the exact same
//!   `build_block_lists` call the builder used, guaranteeing identical pair
//!   ordering — which is what aligns the serialized coupling/nearfield block
//!   sequences with their pairs.

use crate::builders::BuildStats;
use crate::cache::{BlockKind, BlockTable};
use crate::config::{BuilderProvenance, MemoryMode};
use crate::h2matrix::{pairs, H2MatrixS};
use crate::proxy::ProxyPoints;
use h2_kernels::Kernel;
use h2_linalg::{BasisMatrix, MatrixS, Scalar};
use h2_points::admissibility::build_block_lists;
use h2_points::ClusterTree;
use std::sync::Arc;

/// Everything that defines a built H² operator except the kernel closure:
/// the cluster tree, the per-node generators, and (in normal mode) the
/// materialized blocks.
#[derive(Clone, Debug)]
pub struct H2Parts<S: Scalar = f64> {
    /// The cluster tree (owns the point set and permutation).
    pub tree: ClusterTree,
    /// Well-separation parameter the block lists were built with.
    pub eta: f64,
    /// Memory mode: decides whether dense blocks are present.
    pub mode: MemoryMode,
    /// Leaf bases `U_i` (empty matrices for internal nodes).
    pub bases: Vec<BasisMatrix<S>>,
    /// Transfer matrices `R_c` (empty for the root).
    pub transfers: Vec<BasisMatrix<S>>,
    /// Per-node proxy points (skeleton indices or grid coordinates).
    pub proxies: Vec<ProxyPoints>,
    /// Per-node ranks.
    pub ranks: Vec<usize>,
    /// Coupling blocks aligned with `interaction_pairs` (`None` = on-the-fly).
    pub coupling_blocks: Option<Vec<MatrixS<S>>>,
    /// Nearfield blocks aligned with `nearfield_pairs` (`None` = on-the-fly).
    pub nearfield_blocks: Option<Vec<MatrixS<S>>>,
    /// Which construction pipeline produced the generators. Pure metadata:
    /// unknown values are surfaced, never rejected.
    pub provenance: BuilderProvenance,
    /// The operator's update epoch (0 for files written before epochs
    /// existed — the codec reads an absent epoch as 0).
    pub epoch: u64,
}

impl<S: Scalar> H2MatrixS<S> {
    /// Clones this operator's state into serializable [`H2Parts`].
    pub fn to_parts(&self) -> H2Parts<S> {
        let stored = |kind| {
            Some(
                self.table
                    .stored_blocks(kind)?
                    .into_iter()
                    .cloned()
                    .collect(),
            )
        };
        H2Parts {
            tree: self.tree.clone(),
            eta: self.lists.eta,
            mode: self.mode(),
            bases: self.bases.clone(),
            transfers: self.transfers.clone(),
            proxies: self.proxies.clone(),
            ranks: self.ranks.clone(),
            coupling_blocks: stored(BlockKind::Coupling),
            nearfield_blocks: stored(BlockKind::Nearfield),
            provenance: self.provenance,
            epoch: self.epoch,
        }
    }

    /// Reassembles an operator from parts and the kernel it was built for.
    ///
    /// Block lists are recomputed from the tree and `eta` (deterministic, so
    /// pair order matches construction) and every shape invariant the matvec
    /// relies on is revalidated. Returns `Err` — never panics — on any
    /// inconsistency, so loaders can surface corrupt files as typed errors.
    pub fn from_parts(parts: H2Parts<S>, kernel: Arc<dyn Kernel>) -> Result<H2MatrixS<S>, String> {
        if !kernel.is_symmetric() {
            return Err("H2 operators require a symmetric kernel".into());
        }
        let H2Parts {
            tree,
            eta,
            mode,
            bases,
            transfers,
            proxies,
            ranks,
            coupling_blocks,
            nearfield_blocks,
            provenance,
            epoch,
        } = parts;
        if !(eta.is_finite() && eta > 0.0) {
            return Err(format!("invalid eta {eta}"));
        }
        let n_nodes = tree.node_count();
        let n = tree.points().len();
        if bases.len() != n_nodes
            || transfers.len() != n_nodes
            || proxies.len() != n_nodes
            || ranks.len() != n_nodes
        {
            return Err(format!(
                "generator arrays ({}, {}, {}, {}) do not match node count {n_nodes}",
                bases.len(),
                transfers.len(),
                proxies.len(),
                ranks.len()
            ));
        }
        for (i, nd) in tree.nodes().iter().enumerate() {
            if proxies[i].len() != ranks[i] {
                return Err(format!("node {i}: proxy count != rank {}", ranks[i]));
            }
            if let ProxyPoints::Indices(idx) = &proxies[i] {
                if idx.iter().any(|&p| p >= n) {
                    return Err(format!("node {i}: skeleton index out of range"));
                }
            }
            if nd.is_leaf() {
                if bases[i].shape() != (nd.len(), ranks[i]) {
                    return Err(format!("node {i}: leaf basis shape mismatch"));
                }
            } else if !bases[i].is_empty() {
                return Err(format!("node {i}: internal node carries a leaf basis"));
            }
            if let Some(p) = nd.parent {
                // Rank-0 parents produce empty transfers regardless of child rank.
                let expect = if ranks[p] == 0 && transfers[i].is_empty() {
                    transfers[i].shape()
                } else {
                    (ranks[i], ranks[p])
                };
                if transfers[i].shape() != expect {
                    return Err(format!("node {i}: transfer shape mismatch"));
                }
            } else if !transfers[i].is_empty() {
                return Err(format!("node {i}: root carries a transfer"));
            }
        }
        let lists = build_block_lists(&tree, eta);
        let table = match mode {
            MemoryMode::OnTheFly => {
                if coupling_blocks.is_some() || nearfield_blocks.is_some() {
                    return Err("on-the-fly parts carry materialized blocks".into());
                }
                // The budget is a runtime choice, not part of the persisted
                // operator — set it with `set_cache_budget` after decode.
                BlockTable::listed(pairs(&lists), Some(0))
            }
            MemoryMode::Normal => {
                let (Some(cb), Some(nb)) = (coupling_blocks, nearfield_blocks) else {
                    return Err("normal-mode parts missing materialized blocks".into());
                };
                if cb.len() != lists.interaction_pairs.len() {
                    return Err(format!(
                        "{} coupling blocks for {} interaction pairs",
                        cb.len(),
                        lists.interaction_pairs.len()
                    ));
                }
                if nb.len() != lists.nearfield_pairs.len() {
                    return Err(format!(
                        "{} nearfield blocks for {} nearfield pairs",
                        nb.len(),
                        lists.nearfield_pairs.len()
                    ));
                }
                for (b, &(i, j)) in cb.iter().zip(&lists.interaction_pairs) {
                    if b.shape() != (proxies[i].len(), proxies[j].len()) {
                        return Err(format!("coupling block ({i}, {j}) shape mismatch"));
                    }
                }
                for (b, &(i, j)) in nb.iter().zip(&lists.nearfield_pairs) {
                    if b.shape() != (tree.node(i).len(), tree.node(j).len()) {
                        return Err(format!("nearfield block ({i}, {j}) shape mismatch"));
                    }
                }
                BlockTable::stored(pairs(&lists), [cb, nb], epoch)
            }
        };
        Ok(H2MatrixS {
            tree,
            lists,
            kernel,
            bases,
            transfers,
            proxies,
            ranks,
            table: Arc::new(table),
            provenance,
            stats: BuildStats::default(),
            epoch,
            // Per-node histories are not persisted: a loaded operator's
            // blocks are all consistent at its stored epoch.
            node_epochs: vec![epoch; n_nodes],
            update: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, H2Config};
    use crate::h2matrix::H2Matrix;
    use h2_kernels::Coulomb;
    use h2_points::gen;

    fn build(mode: MemoryMode) -> H2Matrix {
        let pts = gen::uniform_cube(800, 3, 11);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    }

    #[test]
    fn parts_round_trip_bitwise_both_modes() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(mode);
            let back = H2Matrix::from_parts(h2.to_parts(), Arc::new(Coulomb)).unwrap();
            let b: Vec<f64> = (0..h2.n()).map(|i| (i as f64 * 0.37).sin()).collect();
            assert_eq!(h2.matvec(&b), back.matvec(&b), "mode {mode:?}");
        }
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        let h2 = build(MemoryMode::Normal);

        let mut p = h2.to_parts();
        p.ranks[3] += 1;
        assert!(H2Matrix::from_parts(p, Arc::new(Coulomb)).is_err());

        let mut p = h2.to_parts();
        p.coupling_blocks.as_mut().unwrap().pop();
        assert!(H2Matrix::from_parts(p, Arc::new(Coulomb)).is_err());

        let mut p = h2.to_parts();
        p.mode = MemoryMode::OnTheFly; // blocks present but mode says none
        assert!(H2Matrix::from_parts(p, Arc::new(Coulomb)).is_err());

        let mut p = h2.to_parts();
        p.eta = f64::NAN;
        assert!(H2Matrix::from_parts(p, Arc::new(Coulomb)).is_err());

        let otf = build(MemoryMode::OnTheFly);
        let mut p = otf.to_parts();
        let ranked = (0..otf.tree().node_count())
            .find(|&i| otf.rank(i) > 0)
            .unwrap();
        if let ProxyPoints::Indices(v) = &mut p.proxies[ranked] {
            v[0] = usize::MAX;
        }
        assert!(H2Matrix::from_parts(p, Arc::new(Coulomb)).is_err());
    }
}
