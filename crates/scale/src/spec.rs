//! ELU-array specification and the photonic-link model.

use std::error::Error;
use std::fmt;
use tilt_circuit::ValidateCircuitError;
use tilt_compiler::{Compiler, DeviceSpec, InitialMapping, RouterKind, SchedulerKind};

/// Ion slots reserved per ELU for the photonic communication qubits.
pub const COMM_SLOTS: usize = 2;

/// Photonic-interconnect cost model.
///
/// Heralded ion–photon entanglement is probabilistic; the defaults are in
/// the range of the MUSIQC analyses (EPR fidelity in the mid-90s %,
/// effective generation time around a millisecond after multiplexing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EprModel {
    /// Fidelity of one distributed EPR pair (applied once per remote
    /// gate).
    pub fidelity: f64,
    /// Effective generation latency per pair, in µs.
    pub generation_us: f64,
}

impl Default for EprModel {
    fn default() -> Self {
        EprModel {
            fidelity: 0.95,
            generation_us: 1000.0,
        }
    }
}

/// A modular machine built from identical TILT ELUs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleSpec {
    ions_per_elu: usize,
    head_size: usize,
    /// Photonic-link model.
    pub epr: EprModel,
    /// Swap-insertion policy for every ELU's LinQ instance.
    pub router: RouterKind,
    /// Tape-scheduling policy for every ELU's LinQ instance.
    pub scheduler: SchedulerKind,
    /// Initial-placement strategy for every ELU's LinQ instance.
    pub initial_mapping: InitialMapping,
}

/// Why an ELU-array specification or compilation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ScaleError {
    /// The per-ELU geometry is unusable.
    InvalidSpec {
        /// Human-readable description.
        reason: String,
    },
    /// An input gate failed validation; the error carries its index in
    /// the input circuit or stream.
    InvalidCircuit(ValidateCircuitError),
    /// An underlying LinQ compilation failed (carries the rendered error).
    EluCompile {
        /// Which ELU failed.
        elu: usize,
        /// Rendered compiler error.
        reason: String,
    },
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::InvalidSpec { reason } => write!(f, "invalid ELU spec: {reason}"),
            ScaleError::InvalidCircuit(e) => write!(f, "invalid input gate: {e}"),
            ScaleError::EluCompile { elu, reason } => {
                write!(f, "ELU {elu} failed to compile: {reason}")
            }
        }
    }
}

impl ScaleError {
    /// ELU `elu`'s LinQ compile failed with `err`.
    pub(crate) fn elu(elu: usize, err: &tilt_compiler::CompileError) -> Self {
        ScaleError::EluCompile {
            elu,
            reason: err.to_string(),
        }
    }
}

impl Error for ScaleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScaleError::InvalidCircuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateCircuitError> for ScaleError {
    fn from(e: ValidateCircuitError) -> Self {
        ScaleError::InvalidCircuit(e)
    }
}

impl ScaleSpec {
    /// Creates an ELU template: `ions_per_elu` tape positions (of which
    /// [`COMM_SLOTS`] are communication ions) under a head of
    /// `head_size` lasers, with the default photonic link.
    ///
    /// # Errors
    ///
    /// Rejects ELUs without room for at least two data ions plus the
    /// communication slots, and heads smaller than 2 or wider than the
    /// ELU.
    pub fn new(ions_per_elu: usize, head_size: usize) -> Result<Self, ScaleError> {
        if ions_per_elu < COMM_SLOTS + 2 {
            return Err(ScaleError::InvalidSpec {
                reason: format!(
                    "{ions_per_elu} ions leave no data capacity beside {COMM_SLOTS} comm slots"
                ),
            });
        }
        if head_size < 2 || head_size > ions_per_elu {
            return Err(ScaleError::InvalidSpec {
                reason: format!("head {head_size} invalid for a {ions_per_elu}-ion ELU"),
            });
        }
        Ok(ScaleSpec {
            ions_per_elu,
            head_size,
            epr: EprModel::default(),
            router: RouterKind::default(),
            scheduler: SchedulerKind::default(),
            initial_mapping: InitialMapping::default(),
        })
    }

    /// Replaces the photonic-link model.
    pub fn with_epr(mut self, epr: EprModel) -> Self {
        self.epr = epr;
        self
    }

    /// Replaces the per-ELU swap-insertion policy.
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Replaces the per-ELU tape-scheduling policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the per-ELU initial-placement strategy.
    pub fn with_initial_mapping(mut self, initial: InitialMapping) -> Self {
        self.initial_mapping = initial;
        self
    }

    /// The per-ELU TILT device this template describes.
    ///
    /// # Errors
    ///
    /// [`ScaleError::InvalidSpec`] when the geometry is not a valid
    /// TILT device (never for a spec built by [`ScaleSpec::new`]).
    pub fn elu_device(&self) -> Result<DeviceSpec, ScaleError> {
        DeviceSpec::new(self.ions_per_elu, self.head_size).map_err(|e| ScaleError::InvalidSpec {
            reason: e.to_string(),
        })
    }

    /// Checks the routing policy against the per-ELU device geometry
    /// and returns that device — the session API calls this once at
    /// engine construction so configuration errors surface before the
    /// first circuit, and `compile_scaled` gets its validated
    /// [`DeviceSpec`] from the same check.
    ///
    /// # Errors
    ///
    /// [`ScaleError::InvalidSpec`] when the router parameters are
    /// inconsistent with the ELU geometry (e.g. `max_swap_len` wider
    /// than the ELU head).
    pub fn validate_policies(&self) -> Result<DeviceSpec, ScaleError> {
        let device = self.elu_device()?;
        self.router
            .validate(device)
            .map_err(|e| ScaleError::InvalidSpec {
                reason: e.to_string(),
            })?;
        Ok(device)
    }

    /// The LinQ compiler every ELU runs, after [`ScaleSpec::validate_policies`].
    pub(crate) fn elu_compiler(&self) -> Result<Compiler, ScaleError> {
        let mut compiler = Compiler::new(self.validate_policies()?);
        compiler
            .router(self.router)
            .scheduler(self.scheduler)
            .initial_mapping(self.initial_mapping);
        Ok(compiler)
    }

    /// Tape length of each ELU.
    pub fn ions_per_elu(&self) -> usize {
        self.ions_per_elu
    }

    /// Head size of each ELU.
    pub fn head_size(&self) -> usize {
        self.head_size
    }

    /// Data qubits each ELU can host.
    pub fn data_capacity(&self) -> usize {
        self.ions_per_elu - COMM_SLOTS
    }

    /// Number of ELUs needed for `n_qubits` data qubits.
    pub fn elus_for(&self, n_qubits: usize) -> usize {
        n_qubits.div_ceil(self.data_capacity()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_excludes_comm_slots() {
        let s = ScaleSpec::new(18, 8).unwrap();
        assert_eq!(s.data_capacity(), 16);
        assert_eq!(s.elus_for(64), 4);
        assert_eq!(s.elus_for(65), 5);
        assert_eq!(s.elus_for(1), 1);
    }

    #[test]
    fn rejects_degenerate_elus() {
        assert!(ScaleSpec::new(3, 2).is_err());
        assert!(ScaleSpec::new(18, 1).is_err());
        assert!(ScaleSpec::new(18, 19).is_err());
        assert!(ScaleSpec::new(4, 4).is_ok());
    }

    #[test]
    fn error_messages_render() {
        let e = ScaleSpec::new(2, 2).unwrap_err();
        assert!(e.to_string().contains("data capacity"));
    }
}
