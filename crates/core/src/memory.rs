//! Exact logical memory accounting for every stored generator.
//!
//! The paper reports memory as the dominant evaluation metric (Table I,
//! Figs. 4–9). We account bytes per component rather than sampling resident
//! set size: deterministic, allocator-independent, and it decomposes the
//! way the paper's analysis does (coupling blocks dominate normal mode; the
//! on-the-fly mode keeps only bases, transfers and index lists).

/// Byte counts per H² component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Leaf basis matrices `U_i`, as held: row maps and coefficient
    /// blocks (`h2_linalg::BasisMatrix::bytes`).
    pub bases: usize,
    /// Transfer matrices `R_c`, as held.
    pub transfers: usize,
    /// Proxy data (skeleton index lists or stored grid coordinates).
    pub proxies: usize,
    /// Materialized coupling blocks `B_{i,j}` (0 in on-the-fly mode).
    pub coupling_blocks: usize,
    /// Materialized nearfield blocks (0 in on-the-fly mode).
    pub nearfield_blocks: usize,
    /// Blocks resident in the budgeted tier between the stores and the
    /// kernel (0 without a cache; see [`crate::cache`]).
    pub cached_blocks: usize,
    /// Sparse pair→slot indices of both stores.
    pub block_indices: usize,
    /// Cluster tree (permutation, nodes, boxes, owned point copy).
    pub tree: usize,
    /// Interaction/nearfield lists.
    pub lists: usize,
    /// Largest single coupling/nearfield block that the on-the-fly matvec
    /// regenerates; concurrent OTF usage is `threads x` this (paper Fig. 7c).
    pub max_otf_block: usize,
    /// Bytes of generators/blocks backed by an `mmap`ed operator file
    /// (the codec's zero-copy loading). These pages belong to the OS page
    /// cache, not this process's heap, so they are excluded from
    /// [`MemoryReport::total`] — the registry surfaces them as their own
    /// gauge instead.
    pub mapped_bytes: usize,
    /// The operator's update epoch at report time (0 for a static operator;
    /// not a byte count — excluded from every total).
    pub epoch: u64,
}

impl MemoryReport {
    /// Total stored bytes (excludes the transient `max_otf_block`).
    pub fn total(&self) -> usize {
        self.bases
            + self.transfers
            + self.proxies
            + self.coupling_blocks
            + self.nearfield_blocks
            + self.cached_blocks
            + self.block_indices
            + self.tree
            + self.lists
    }

    /// Total in MiB.
    pub fn total_mib(&self) -> f64 {
        self.total() as f64 / (1024.0 * 1024.0)
    }

    /// Generator-only bytes: what the paper's "memory consumption" counts
    /// (bases + transfers + proxies + blocks + indices), excluding the tree
    /// and the admissibility lists that any method shares.
    pub fn generators(&self) -> usize {
        self.bases
            + self.transfers
            + self.proxies
            + self.coupling_blocks
            + self.nearfield_blocks
            + self.cached_blocks
            + self.block_indices
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn mib(b: usize) -> f64 {
            b as f64 / (1024.0 * 1024.0)
        }
        writeln!(f, "memory report (MiB):")?;
        writeln!(f, "  bases            {:>10.3}", mib(self.bases))?;
        writeln!(f, "  transfers        {:>10.3}", mib(self.transfers))?;
        writeln!(f, "  proxies          {:>10.3}", mib(self.proxies))?;
        writeln!(f, "  coupling blocks  {:>10.3}", mib(self.coupling_blocks))?;
        writeln!(f, "  nearfield blocks {:>10.3}", mib(self.nearfield_blocks))?;
        writeln!(f, "  cached blocks    {:>10.3}", mib(self.cached_blocks))?;
        writeln!(f, "  block indices    {:>10.3}", mib(self.block_indices))?;
        writeln!(f, "  tree             {:>10.3}", mib(self.tree))?;
        writeln!(f, "  lists            {:>10.3}", mib(self.lists))?;
        writeln!(f, "  total            {:>10.3}", mib(self.total()))?;
        writeln!(f, "  max OTF block    {:>10.3}", mib(self.max_otf_block))?;
        writeln!(f, "  mapped (file)    {:>10.3}", mib(self.mapped_bytes))?;
        write!(f, "  epoch            {:>10}", self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = MemoryReport {
            bases: 1,
            transfers: 2,
            proxies: 3,
            coupling_blocks: 4,
            nearfield_blocks: 5,
            cached_blocks: 9,
            block_indices: 6,
            tree: 7,
            lists: 8,
            max_otf_block: 100,
            mapped_bytes: 1000,
            epoch: 3,
        };
        assert_eq!(r.total(), 45, "mapped/transient bytes are not resident");
        assert_eq!(r.generators(), 30);
    }

    #[test]
    fn display_renders() {
        let r = MemoryReport::default();
        let s = format!("{r}");
        assert!(s.contains("coupling blocks"));
        assert!(s.contains("total"));
    }
}
