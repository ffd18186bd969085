//! QCCD error types.

use std::error::Error;
use std::fmt;
use tilt_circuit::ValidateCircuitError;

/// Why building or compiling for a QCCD device failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QccdError {
    /// The trap array cannot hold the requested qubits (or has degenerate
    /// geometry).
    InvalidSpec {
        /// Human-readable description.
        reason: String,
    },
    /// The circuit needs more qubits than the array can hold with
    /// transport headroom.
    CircuitTooWide {
        /// Circuit register width.
        circuit_qubits: usize,
        /// Usable qubit slots.
        usable_slots: usize,
    },
    /// The input circuit failed structural validation.
    InvalidCircuit(ValidateCircuitError),
    /// A gate acts on more than two qubits; decompose the circuit first.
    UnsupportedGate {
        /// Index of the gate in the input circuit.
        gate_index: usize,
        /// Its qubit count.
        arity: usize,
    },
}

impl fmt::Display for QccdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QccdError::InvalidSpec { reason } => write!(f, "invalid QCCD spec: {reason}"),
            QccdError::CircuitTooWide {
                circuit_qubits,
                usable_slots,
            } => write!(
                f,
                "circuit needs {circuit_qubits} qubits but the trap array holds {usable_slots} with headroom"
            ),
            QccdError::InvalidCircuit(e) => write!(f, "invalid input circuit: {e}"),
            QccdError::UnsupportedGate { gate_index, arity } => write!(
                f,
                "gate {gate_index} acts on {arity} qubits; the QCCD router needs two-qubit granularity"
            ),
        }
    }
}

impl Error for QccdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QccdError::InvalidCircuit(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = QccdError::CircuitTooWide {
            circuit_qubits: 64,
            usable_slots: 60,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("60"));
    }
}
