//! Deployment settings of the socket transport: deadlines, the listen
//! address, tracing and the flight-recorder directory.

use std::path::PathBuf;
use std::time::Duration;

/// Settings of the socket transport. The defaults suit a LAN/loopback
/// deployment; tests shrink the timeouts so failure paths resolve fast.
/// Not settings: `TCP_NODELAY` is always on, and connection retries back
/// off from 10 ms, doubling to at most 500 ms.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Total budget for establishing one TCP connection, including the
    /// bounded exponential-backoff retries inside it.
    pub connect_timeout: Duration,
    /// Per-read/-write deadline during the blocking handshake exchange.
    pub handshake_timeout: Duration,
    /// Deadline of one blocking transport operation (a `recv` of a
    /// specific message, a full flush). A peer silent for longer than
    /// this mid-protocol is reported as timed out.
    pub io_timeout: Duration,
    /// Address listeners bind to; port 0 picks an ephemeral port.
    pub listen_addr: String,
    /// Distributed tracing: when true, the coordinator assigns each sweep
    /// a trace id, distributes it to the workers, and collects their span
    /// buffers after every sweep for a merged cluster trace. Off by
    /// default — workers ship *their whole process's* span buffer, so this
    /// must stay off when worker ranks share a process (thread-based
    /// tests).
    pub trace: bool,
    /// Flight recorder: when set, every rank keeps a bounded ring of
    /// recent spans/events and dumps it to
    /// `<dir>/h2-flight-rank<R>.json` (workers, after every sweep and on
    /// panic) or `<dir>/h2-flight-coordinator.json` (the coordinator, when
    /// a sweep poisons). Off by default.
    pub flight_dir: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            listen_addr: "127.0.0.1:0".into(),
            trace: false,
            flight_dir: None,
        }
    }
}

impl NetConfig {
    /// A config with every timeout scaled for impatient tests: sub-second
    /// failure detection without touching the retry structure.
    pub fn fast_failure(io_timeout: Duration) -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(2),
            io_timeout,
            ..NetConfig::default()
        }
    }
}
