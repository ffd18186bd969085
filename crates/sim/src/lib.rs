//! Noise-aware fidelity and timing simulation for TILT programs (§IV-E of
//! the paper).
//!
//! The simulator consumes the executable gate/move stream produced by the
//! LinQ compiler and estimates:
//!
//! * **Program success rate** — the product of per-gate fidelities under
//!   the thermal-heating noise model of Eq. 4, where every tape move adds
//!   `k ∝ √n` motional quanta to the chain and two-qubit gates become more
//!   sensitive to laser imperfections as the chain heats
//!   ([`estimate_success`]).
//! * **Execution time** — Eq. 5: shuttle time at 1 µm/µs plus the sum of
//!   per-depth maximum gate times, with the AM two-qubit gate time
//!   `τ(d) = 38·d + 10 µs` of Eq. 3 ([`execution_time_us`]).
//! * **Ideal trapped-ion reference** — the same gate-level model with full
//!   connectivity and zero shuttling ([`estimate_ideal_success`]),
//!   the "Ideal TI" series of Fig. 8.
//!
//! # Example
//!
//! ```
//! use tilt_benchmarks::bv::bernstein_vazirani;
//! use tilt_compiler::{Compiler, DeviceSpec};
//! use tilt_sim::{estimate_success, GateTimeModel, NoiseModel};
//!
//! let circuit = bernstein_vazirani(16, &[true; 15]);
//! let out = Compiler::new(DeviceSpec::new(16, 8)?).compile(&circuit)?;
//! let report = estimate_success(&out.program, &NoiseModel::default(), &GateTimeModel::default());
//! assert!(report.success > 0.0 && report.success < 1.0);
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

pub mod cooling;
pub mod exec_time;
pub mod fingerprint;
pub mod gate_time;
pub mod ideal;
pub mod noise;
pub mod streaming;
pub mod success;

pub use cooling::{estimate_success_with_cooling, CooledSuccessReport, CoolingPolicy};
pub use exec_time::{execution_time_us, ExecTimeModel};
pub use gate_time::GateTimeModel;
pub use ideal::estimate_ideal_success;
pub use noise::NoiseModel;
pub use success::{estimate_success, SuccessReport};
