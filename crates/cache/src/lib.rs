//! Shell for `benchmark/Cargo.toml`: the code is [`h2_core::cache`]; ROADMAP item 1a deletes it.
pub use h2_core::cache::{BlockKind, CacheBudget, CacheStats};
pub use h2_core::compat::*;
