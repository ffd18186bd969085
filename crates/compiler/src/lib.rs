//! LinQ — the optimizing compiler for the TILT trapped-ion linear-tape
//! architecture (Wu et al., HPCA 2021, §IV).
//!
//! LinQ lowers a high-level quantum circuit to a stream of TILT machine
//! operations (gates pinned to tape-head positions, interleaved with tape
//! moves) in three passes, mirroring Fig. 4 of the paper:
//!
//! 1. [`decompose`] — rewrite program gates into the trapped-ion native set
//!    `{Rx, Ry, Rz, XX}` (§IV-B).
//! 2. [`route`] — map logical qubits onto tape positions and insert SWAP
//!    gates so that every two-qubit gate fits under the head (§IV-C,
//!    Algorithm 1). Two routers are provided: the paper's heuristic
//!    ([`route::linq`], with opposing-swap creation and the `MaxSwapLen`
//!    restriction) and the Qiskit-StochasticSwap-style baseline
//!    ([`route::stochastic`]).
//! 3. [`schedule`] — choose the tape-head position sequence, greedily
//!    maximizing executable gates per move (§IV-D, Algorithm 2).
//!
//! The [`pipeline::Compiler`] builder runs all three and reports the
//! statistics the paper evaluates (swap counts, opposing-swap ratio, move
//! counts, tape travel distance, pass timings).
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{Compiler, DeviceSpec};
//!
//! let mut c = Circuit::new(8);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(7));
//! let spec = DeviceSpec::new(8, 4)?;
//! let out = Compiler::new(spec).compile(&c)?;
//! assert!(out.program.move_count() >= 1);
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

pub mod decompose;
pub mod error;
pub mod fingerprint;
pub mod mapping;
pub mod pipeline;
pub mod program;
pub mod route;
pub mod schedule;
pub mod spec;
pub mod verify;
pub mod viz;

pub use error::CompileError;
pub use mapping::{InitialMapping, Mapping};
pub use pipeline::streaming::{CollectSink, ProgramSink, StreamSummary, StreamingCompiler};
pub use pipeline::{CompileOutput, CompileReport, Compiler};
pub use program::{OpLines, TiltOp, TiltProgram};
pub use route::{RouteOutcome, RouterKind};
pub use schedule::SchedulerKind;
pub use spec::DeviceSpec;
pub use verify::{Diagnostic, Severity, TiltVerifier};
