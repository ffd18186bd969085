//! Dense state-vector simulation for verification.
//!
//! The architectural simulator (`tilt-sim`) estimates *fidelity*; this
//! crate checks *semantics*: that the native-gate decompositions and the
//! routed physical circuits implement the same unitaries as the programs
//! they came from. It is a verification tool for small registers
//! (`n ≲ 16`), not a performance simulator: every gate takes one path,
//! gate by gate through the pair-indexed [`kernels`], and the seed's
//! full-scan loop stays in [`naive`] as the oracle they are tested
//! against.
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_statevec::State;
//!
//! // Build a Bell state and inspect the amplitudes.
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cnot(Qubit(0), Qubit(1));
//! let state = State::zero(2).run(&bell);
//! let p = state.probability_of(0b00) + state.probability_of(0b11);
//! assert!((p - 1.0).abs() < 1e-12);
//! ```

pub mod complex;
pub mod kernels;
pub mod naive;
pub mod simd;
pub mod state;

pub use complex::Complex;
pub use state::{State, StateError, DEFAULT_MAX_QUBITS};
