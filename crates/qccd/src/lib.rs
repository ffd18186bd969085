//! QCCD: the quantum charge-coupled device comparator architecture
//! (Kielpinski et al., Nature 417; modelled after Murali et al.,
//! arXiv:2004.04706 — reference \[64\] of the TILT paper).
//!
//! A QCCD machine is a linear array of small traps connected by shuttling
//! segments. Within a trap, ions are fully connected; to interact ions in
//! *different* traps the device must move an ion to the chain edge,
//! **split** it off, **shuttle** it across one or more segments, and
//! **merge** it into the destination chain — each primitive depositing
//! motional quanta (Honeywell reports ≈2 quanta per shuttling operation
//! including split/merge, §IV-E of the TILT paper). Honeywell-style
//! devices keep chains cold with sympathetic cooling rounds, which this
//! model includes as a quanta threshold.
//!
//! This crate reproduces the *cost structure* Fig. 8 of the TILT paper
//! compares against: cheap short-range parallelism, expensive cross-trap
//! communication. [`compile_qccd`] routes a circuit onto the trap array
//! and [`estimate_qccd_success`] walks the primitive trace under the same
//! Eq. 3/Eq. 4 models used for TILT.
//!
//! # Example
//!
//! ```
//! use tilt_benchmarks::qaoa::qaoa_maxcut;
//! use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
//! use tilt_sim::{GateTimeModel, NoiseModel};
//!
//! let circuit = qaoa_maxcut(32, 4, 1);
//! let spec = QccdSpec::for_qubits(32, 17)?;
//! let program = compile_qccd(&circuit, &spec)?;
//! let report = estimate_qccd_success(
//!     &program,
//!     &NoiseModel::default(),
//!     &GateTimeModel::default(),
//!     &QccdParams::default(),
//! );
//! assert!(report.success > 0.0);
//! assert!(report.transports > 0);
//! # Ok::<(), tilt_qccd::QccdError>(())
//! ```

pub mod error;
pub mod fingerprint;
pub mod params;
pub mod program;
pub mod router;
pub mod sim;
pub mod spec;
pub mod verify;

pub use error::QccdError;
pub use params::QccdParams;
pub use program::{QccdOp, QccdProgram};
pub use router::{compile_qccd, QccdRouter};
pub use sim::{estimate_qccd_success, QccdEstimator, QccdReport};
pub use spec::QccdSpec;
