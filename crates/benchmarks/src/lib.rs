//! NISQ benchmark circuit generators — the Table II suite of the TILT paper.
//!
//! Six applications with deliberately different communication patterns:
//!
//! | Benchmark | Qubits | Communication |
//! |-----------|--------|---------------|
//! | [`adder`]  | 64 | short-distance gates |
//! | [`bv`]     | 64 | long-distance gates |
//! | [`qaoa`]   | 64 | nearest-neighbor gates |
//! | [`rcs`]    | 64 | nearest-neighbor gates (2D grid on a line) |
//! | [`qft`]    | 64 | long-distance gates |
//! | [`sqrt`]   | 78 | long-distance gates |
//!
//! Generators emit circuits at the CNOT level (Toffolis and controlled
//! phases already lowered to two-qubit gates), matching how the paper's
//! Table II counts "2Q Gates". The [`suite`] module bundles the exact
//! paper configurations.
//!
//! Beyond the Table II suite, the [`qec`] module generates QEC-scale
//! pure-Clifford syndrome-extraction workloads (repetition-code and
//! surface-style memory experiments, hundreds of qubits) for the
//! stabilizer simulation backend, and the [`stream`] module provides
//! the scalable generators as lazy gate streams (the QFT and RCS
//! builders collect them) for the bounded-memory streaming compile
//! pipeline.
//!
//! # Example
//!
//! ```
//! use tilt_benchmarks::qft::qft;
//!
//! let c = qft(64);
//! assert_eq!(c.n_qubits(), 64);
//! assert_eq!(c.two_qubit_count(), 4032); // Table II
//! ```

pub mod adder;
pub mod bv;
pub mod qaoa;
pub mod qec;
pub mod qft;
pub mod rcs;
pub mod sqrt;
pub mod stream;
pub mod suite;
pub mod util;

pub use suite::{paper_suite, Benchmark, CommunicationPattern, PaperTable3, PAPER_FIG8_HEADLINE};
