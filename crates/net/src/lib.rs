//! Shell for `benchmark/Cargo.toml`: the code is [`h2_dist::net`]; ROADMAP item 1a deletes it.
pub use h2_dist::net::{run_worker, BoundCoordinator, NetConfig, NetError};
