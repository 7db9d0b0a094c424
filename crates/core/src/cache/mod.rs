//! Where an operator's coupling and nearfield blocks live: one
//! [`BlockTable`] per operator, every block held in normal mode (fastest
//! matvec, largest footprint), the first fit of a [`CacheBudget`] on the fly
//! (0 by default: every block regenerated per sweep), and the
//! [`BlockSlabs`] a mapped operator file lends it. A block's slot is its
//! pair's position in the operator's sorted pair lists, which the table
//! shares: the lists are the index, found by binary search. A block not held is
//! generated with the routine the table holds it with and applied with the
//! same kernels, so every budget is normal mode's arithmetic bit for bit.

pub mod budget;
pub mod slabs;
pub mod table;

pub use budget::{split_budget, CacheBudget};
pub use slabs::{BlockSlabs, SlabBlock};
pub use table::{BlockKind, BlockTable, CacheStats};
