//! Shell for `benchmark/Cargo.toml`: the code is [`h2_core::cache`]; ROADMAP item 1a deletes it.
pub use h2_core::cache::{budget, resident as cache, slabs, stores};
pub use h2_core::cache::{split_budget, CacheBudget};
pub use h2_core::cache::{BlockCache, BlockKind, CacheStats};
pub use h2_core::cache::{
    BlockIndex, BlockSlabs, BlockStore, CouplingStore, NearfieldStore, SlabBlock,
};
