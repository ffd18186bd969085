//! The unified error type for the session API.
//!
//! Each backend crate keeps its own error enum ([`CompileError`],
//! [`QccdError`], [`ScaleError`]); [`TiltError`] wraps all three behind
//! `From` impls so engine clients can use `?` regardless of which
//! backend a session targets.

use std::error::Error;
use std::fmt;
use tilt_compiler::CompileError;
use tilt_qccd::QccdError;
use tilt_scale::ScaleError;

/// Why an engine could not be built or a run failed — the union of the
/// three backend error types plus engine-level configuration errors.
#[derive(Clone, Debug, PartialEq)]
pub enum TiltError {
    /// A TILT (LinQ) compilation failed: invalid spec, circuit wider
    /// than the tape, invalid circuit, or inconsistent router config.
    Compile(CompileError),
    /// A QCCD compilation failed: invalid trap array or circuit wider
    /// than the usable slots.
    Qccd(QccdError),
    /// An ELU-array compilation failed: invalid ELU geometry or a
    /// per-ELU LinQ failure.
    Scale(ScaleError),
    /// The engine itself was misconfigured (e.g. no backend selected).
    Config {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A compile or simulate panicked and was caught at the isolation
    /// boundary. The request that carried the poisoned circuit fails;
    /// the rest of its batch and the serve loop survive.
    Internal {
        /// The panic payload (when it was a string) or a placeholder.
        message: String,
    },
    /// The stabilizer simulator was asked to run a non-Clifford
    /// program. Carries the offending gate (rendered) and its index so
    /// clients can point at the exact instruction.
    NonClifford {
        /// The gate's rendered form (e.g. `t q0` or `rz(0.3) q1`).
        gate: String,
        /// Zero-based position of the gate in the logical circuit.
        index: usize,
    },
    /// The requested simulation cannot run (e.g. the circuit is wider
    /// than the dense simulator's qubit cap).
    Simulation {
        /// Human-readable description of the limit that was hit.
        reason: String,
    },
    /// The input gate stream of a streaming run failed — a QASM parse
    /// error or an I/O failure on the underlying reader. Carries the
    /// rendered source error (the stream error types are not `Clone`,
    /// which this enum requires).
    Stream {
        /// Human-readable description of the stream failure.
        reason: String,
    },
    /// Static verification found error-severity diagnostics under
    /// [`VerifyLevel::Strict`](crate::VerifyLevel::Strict): the
    /// compiled program violates a backend invariant.
    Verify {
        /// Total number of diagnostics the rule packs reported.
        count: usize,
        /// The first error-severity diagnostic, rendered.
        first: String,
    },
}

impl fmt::Display for TiltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TiltError::Compile(e) => write!(f, "TILT compile error: {e}"),
            TiltError::Qccd(e) => write!(f, "QCCD error: {e}"),
            TiltError::Scale(e) => write!(f, "ELU-array error: {e}"),
            TiltError::Config { reason } => write!(f, "engine configuration error: {reason}"),
            TiltError::Internal { message } => write!(f, "internal error: {message}"),
            TiltError::NonClifford { gate, index } => write!(
                f,
                "non-Clifford gate `{gate}` at index {index}: the stabilizer \
                 simulator only runs Clifford programs"
            ),
            TiltError::Simulation { reason } => write!(f, "simulation error: {reason}"),
            TiltError::Stream { reason } => write!(f, "gate stream error: {reason}"),
            TiltError::Verify { count, first } => write!(
                f,
                "verification failed with {count} diagnostic(s); first: {first}"
            ),
        }
    }
}

impl Error for TiltError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TiltError::Compile(e) => Some(e),
            TiltError::Qccd(e) => Some(e),
            TiltError::Scale(e) => Some(e),
            TiltError::Config { .. }
            | TiltError::Internal { .. }
            | TiltError::NonClifford { .. }
            | TiltError::Simulation { .. }
            | TiltError::Stream { .. }
            | TiltError::Verify { .. } => None,
        }
    }
}

/// Runs `run` behind a panic boundary: a panic (a compiler bug on one
/// poisoned input) becomes [`TiltError::Internal`] with the panic
/// message when it was a string, costing one result, not the caller.
pub(crate) fn isolated<T>(run: impl FnOnce() -> Result<T, TiltError>) -> Result<T, TiltError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        // Downcast the payload itself, not the box holding it.
        let message = if let Some(s) = payload.as_ref().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.as_ref().downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with a non-string payload".to_string()
        };
        Err(TiltError::Internal { message })
    })
}

impl From<CompileError> for TiltError {
    fn from(e: CompileError) -> Self {
        TiltError::Compile(e)
    }
}

impl From<QccdError> for TiltError {
    fn from(e: QccdError) -> Self {
        TiltError::Qccd(e)
    }
}

impl From<ScaleError> for TiltError {
    fn from(e: ScaleError) -> Self {
        TiltError::Scale(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_enable_question_mark() {
        fn tilt() -> Result<(), TiltError> {
            Err(tilt_compiler::DeviceSpec::new(4, 9).unwrap_err())?;
            Ok(())
        }
        fn qccd() -> Result<(), TiltError> {
            Err(tilt_qccd::QccdSpec::new(0, 6).unwrap_err())?;
            Ok(())
        }
        fn scale() -> Result<(), TiltError> {
            Err(tilt_scale::ScaleSpec::new(2, 2).unwrap_err())?;
            Ok(())
        }
        assert!(matches!(tilt(), Err(TiltError::Compile(_))));
        assert!(matches!(qccd(), Err(TiltError::Qccd(_))));
        assert!(matches!(scale(), Err(TiltError::Scale(_))));
    }

    #[test]
    fn display_prefixes_backend_and_chains_source() {
        let e = TiltError::from(tilt_compiler::DeviceSpec::new(4, 9).unwrap_err());
        assert!(e.to_string().contains("TILT compile error"));
        assert!(Error::source(&e).is_some());
        let c = TiltError::Config {
            reason: "no backend selected".into(),
        };
        assert!(c.to_string().contains("no backend"));
        assert!(Error::source(&c).is_none());
    }
}
