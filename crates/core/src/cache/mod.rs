//! A budgeted tiered block store that bridges the two memory modes of the
//! H² operator (paper §II-B): **normal** (every coupling/nearfield block
//! materialized, fastest matvec, largest footprint) and **on-the-fly**
//! (nothing stored, every block regenerated per sweep, ~an order of
//! magnitude less memory). Between the two binary endpoints this module
//! offers a *continuum*: a byte budget decides how many blocks stay
//! resident, and the sweeps fetch every block through one three-tier
//! lookup ([`crate::sweep`]):
//!
//! - resident — the materialized [`BlockStore`]s (coupling and
//!   nearfield), blocks borrowed straight out of the slab;
//! - cached — a [`BlockCache`] over the same `(kind, i, j)` keys: the
//!   blocks that fit a strict byte budget first-fit in sweep-execution
//!   order, chosen when the budget is set and again by every operator
//!   update, read-only in between;
//! - generated — no storage at all: the block is regenerated into a
//!   scratch buffer and discarded.
//!
//! The cache tier generates blocks with the *same* routines normal mode
//! materializes with and applies them with the same accumulation kernels,
//! so any active budget reproduces normal-mode arithmetic bit for bit;
//! budgets only move the time/memory trade-off, never the answer.

pub mod budget;
pub mod resident;
pub mod slabs;
pub mod stores;

pub use budget::{split_budget, CacheBudget};
pub use resident::{BlockCache, BlockKind, CacheStats};
pub use slabs::{BlockSlabs, SlabBlock};
pub use stores::{BlockIndex, BlockStore, CouplingStore, NearfieldStore};
