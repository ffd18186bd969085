//! Modular TILT scaling: MUSIQC-style ELU arrays with photonic
//! interconnects (§VII of the paper).
//!
//! The paper's scaling discussion proposes using TILT machines as the
//! *element logic units* (ELUs) of a modular architecture (Kim et al.,
//! MUSIQC; Monroe et al., PRA 89 022317): many medium-sized tapes, each
//! with a couple of communication ions that can be entangled with remote
//! ELUs through a reconfigurable photonic switch. Remote two-qubit gates
//! are executed by gate teleportation — one EPR pair plus local
//! CNOT-class gates and measurements in each endpoint ELU.
//!
//! The trade this crate lets you quantify (see `cargo run --release -p
//! tilt-bench --bin scaling`): splitting a wide program over ELUs
//! shortens every chain (per-move heating scales as `√n`, §III-A) and
//! parallelizes tape motion, but each cross-ELU interaction costs an EPR
//! pair of imperfect fidelity and non-trivial generation time.
//!
//! # Example
//!
//! ```
//! use tilt_benchmarks::qaoa::qaoa_maxcut;
//! use tilt_scale::{compile_scaled, estimate_scaled, ScaleSpec};
//! use tilt_sim::{GateTimeModel, NoiseModel};
//!
//! // 32 qubits over ELUs of 18 ions (16 data + 2 communication).
//! let circuit = qaoa_maxcut(32, 2, 1);
//! let spec = ScaleSpec::new(18, 8)?;
//! let program = compile_scaled(&circuit, &spec)?;
//! assert_eq!(program.elu_outputs.len(), 2);
//! let report = estimate_scaled(&program, &NoiseModel::default(), &GateTimeModel::default());
//! assert!(report.success > 0.0);
//! # Ok::<(), tilt_scale::ScaleError>(())
//! ```

mod fingerprint;
mod partition;
mod program;
mod spec;
pub mod streaming;
pub mod verify;

pub use partition::Partition;
pub use program::{compile_scaled, estimate_scaled, ScaleReport, ScaledProgram};
pub use spec::{EprModel, ScaleError, ScaleSpec, COMM_SLOTS};
pub use streaming::{ScaledSink, ScaledStreamSummary, ScaledStreamingCompiler};
pub use verify::{verify_scaled, ScaledVerifier};
