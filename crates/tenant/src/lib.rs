//! Shell for `benchmark/Cargo.toml`: the code is [`h2_serve::tenant`]; ROADMAP item 1a deletes it.
pub use h2_serve::compat::*;
pub use h2_serve::tenant::{BatchScheduler, TenantTable};
