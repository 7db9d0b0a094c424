//! Re-export shim: the coupling/nearfield block stores moved to the
//! `h2-cache` crate, where the budgeted [`h2_cache::BlockCache`] shares
//! their `(i, j)`-canonical key convention. Existing
//! `h2_core::stores::{BlockIndex, CouplingStore, NearfieldStore}` paths
//! keep working through this module.

pub use h2_cache::stores::{BlockIndex, CouplingStore, NearfieldStore};
