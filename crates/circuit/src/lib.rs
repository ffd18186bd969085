//! Quantum circuit intermediate representation for the TILT/LinQ toolflow.
//!
//! This crate provides the circuit substrate that every other crate in the
//! workspace builds on:
//!
//! * [`Qubit`] — a typed index into a quantum register.
//! * [`Gate`] — the gate set used by the paper's benchmarks plus the
//!   trapped-ion native set `{Rx, Ry, Rz, XX}`.
//! * [`Circuit`] — an ordered gate list with a builder-style API.
//! * [`qasm`] — OpenQASM 2.0 emission for debugging and interchange.
//! * [`digest`] — canonical structural hashing ([`Circuit::digest`]),
//!   the circuit half of the engine's compile-cache key.
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cnot(Qubit(0), Qubit(1));
//! assert_eq!(bell.two_qubit_count(), 1);
//! assert_eq!(bell.depth(), 2);
//! ```

pub mod circuit;
pub mod clifford;
pub mod digest;
pub mod gate;
pub mod qasm;
pub mod qubit;
pub mod stats;
pub mod validate;

pub use circuit::Circuit;
pub use gate::{Gate, Operands};
pub use qubit::Qubit;
pub use stats::CircuitStats;
pub use validate::{validate, validate_gate, ValidateCircuitError};
