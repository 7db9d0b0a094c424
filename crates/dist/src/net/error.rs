//! Typed failures of the socket transport and the process topology.

use crate::TransportError;
use std::fmt;

/// Why a networked operation failed. Establishment failures
/// (`Connect`/`Handshake`/`Spawn`) happen before any sweep traffic;
/// `Transport` wraps a mid-sweep failure surfaced by the five-sweep
/// protocol itself. The serving layer converts these into per-request
/// `SubmitError`s, so a lost worker rejects requests instead of wedging
/// the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Could not establish a TCP connection within the configured budget,
    /// after bounded exponential-backoff retries.
    Connect {
        /// The address dialed.
        addr: String,
        /// Connection attempts made.
        attempts: u32,
        /// Last OS-level failure.
        detail: String,
    },
    /// The connection opened but the peer failed identity/version/scalar
    /// verification (or violated the handshake protocol).
    Handshake {
        /// The peer's address.
        addr: String,
        /// What disagreed.
        detail: String,
    },
    /// A worker process could not be spawned.
    Spawn {
        /// OS diagnostic.
        detail: String,
    },
    /// The distributed plan does not match this rank's loaded operator
    /// (different dimension, shard count, or an unsupported scalar code).
    PlanMismatch {
        /// What disagreed.
        detail: String,
    },
    /// The caller handed the coordinator an invalid request (e.g. a
    /// right-hand side of the wrong length).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// A sweep-time transport failure: a worker died, timed out, or sent
    /// protocol-violating bytes mid-protocol.
    Transport(TransportError),
    /// Graceful shutdown could not complete cleanly (a worker had to be
    /// killed or did not exit in time).
    Shutdown {
        /// What was unclean.
        detail: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Connect {
                addr,
                attempts,
                detail,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempts: {detail}"
            ),
            NetError::Handshake { addr, detail } => {
                write!(f, "handshake with {addr} failed: {detail}")
            }
            NetError::Spawn { detail } => write!(f, "spawning worker failed: {detail}"),
            NetError::PlanMismatch { detail } => write!(f, "plan mismatch: {detail}"),
            NetError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            NetError::Transport(e) => write!(f, "transport failure: {e}"),
            NetError::Shutdown { detail } => write!(f, "unclean shutdown: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<TransportError> for NetError {
    fn from(e: TransportError) -> Self {
        NetError::Transport(e)
    }
}
