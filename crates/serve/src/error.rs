//! Typed errors: load-time failures of the persistence codec and
//! submission-time failures of the batched matvec service.

use std::fmt;

/// Why a matvec request could not be enqueued. Submission never panics and
/// never partially enqueues a batch — a rejected call leaves the queue
/// exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// A batch submission carried zero right-hand sides. Draining nothing
    /// through a fused sweep is meaningless, so the service refuses up
    /// front instead of silently minting no tickets.
    EmptyBatch,
    /// A right-hand side's length does not match the operator's column
    /// count. `index` identifies the offending vector within a batch
    /// submission (`None` for single-vector [`crate::MatvecService::submit`]).
    LengthMismatch {
        /// Length of the rejected right-hand side.
        got: usize,
        /// The operator's column count.
        expected: usize,
        /// Position within the submitted batch, if any.
        index: Option<usize>,
    },
    /// The tenant QoS plane refused the submission: the tenant is unknown,
    /// its admission state is closed, or its queue-depth cap is hit
    /// (backpressure). The queue is untouched by a rejection.
    AdmissionRejected {
        /// The tenant name the submission targeted.
        tenant: String,
        /// The admission rule that fired.
        reason: crate::tenant::AdmitError,
    },
    /// The backend operator failed while serving the request — a remote
    /// shard died mid-sweep, the service was dropped with requests still
    /// queued, or any other [`h2_core::ApplyError`] from a fallible apply.
    /// Distinguishes "your request was malformed" (the variants above,
    /// raised at submit time) from "the request was fine but the backend
    /// could not serve it" (raised at drain time through the ticket).
    Backend {
        /// Human-readable diagnostic from the failing backend.
        detail: String,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::EmptyBatch => write!(f, "empty batch: no right-hand sides submitted"),
            SubmitError::LengthMismatch {
                got,
                expected,
                index,
            } => {
                write!(f, "rhs length {got} != operator dimension {expected}")?;
                if let Some(i) = index {
                    write!(f, " (batch entry {i})")?;
                }
                Ok(())
            }
            SubmitError::AdmissionRejected { tenant, reason } => {
                write!(f, "tenant '{tenant}' rejected: {reason}")
            }
            SubmitError::Backend { detail } => write!(f, "backend failure: {detail}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a serialized operator could not be loaded. Every decoding path
/// returns one of these — the loader never panics, whatever the bytes.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the `H2SERVE` magic — not an operator
    /// file at all.
    BadMagic,
    /// The file was written by an incompatible codec version. This build
    /// reads exactly the version it writes (v5); older or future versions
    /// are refused here.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The kernel supplied at load time does not match the one the operator
    /// was built with: a different name, or probe evaluations that differ —
    /// the same name with different parameters, or a file saved by a build
    /// whose kernel evaluation had other bits.
    KernelMismatch {
        /// Kernel name recorded in the file.
        stored: String,
        /// Name of the kernel supplied to the loader.
        given: String,
        /// What part of the fingerprint disagreed.
        reason: &'static str,
    },
    /// The operator was stored in a different scalar precision than the
    /// caller requested (e.g. an `f32` file loaded as `H2MatrixS<f64>`).
    /// The codec never converts silently — re-encode in the desired
    /// precision instead.
    PrecisionMismatch {
        /// Scalar type recorded in the file ("f32" or "f64").
        stored: &'static str,
        /// Scalar type the loader was asked to produce.
        requested: &'static str,
    },
    /// A section is truncated, has a failing checksum, or contains values
    /// that cannot be decoded.
    CorruptSection {
        /// Which section failed.
        section: &'static str,
        /// Decoder diagnostic.
        reason: String,
    },
    /// The sections decoded individually but do not assemble into a
    /// structurally valid operator (shape or config inconsistency).
    Inconsistent(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => write!(f, "not an h2-serve operator file (bad magic)"),
            LoadError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} unsupported (this build reads {supported})"
                )
            }
            LoadError::KernelMismatch {
                stored,
                given,
                reason,
            } => write!(
                f,
                "kernel mismatch: file built with '{stored}', loader given '{given}' ({reason})"
            ),
            LoadError::PrecisionMismatch { stored, requested } => write!(
                f,
                "precision mismatch: file stores {stored} scalars, loader requested {requested}"
            ),
            LoadError::CorruptSection { section, reason } => {
                write!(f, "corrupt '{section}' section: {reason}")
            }
            LoadError::Inconsistent(msg) => write!(f, "inconsistent operator data: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}
