//! Program success-rate estimation.
//!
//! The success rate of a program is the product of its per-gate
//! fidelities. The estimator walks the scheduled gate/move stream in
//! execution order, accumulating motional quanta on every move (Eq. 4's
//! `m·k`) and multiplying fidelities in log space so that deep circuits
//! underflow gracefully (QFT success rates reach 10⁻¹⁴ and below in the
//! paper — far outside `f64` product stability if multiplied naively).
//! The fold itself is [`SuccessAccumulator`].

use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::streaming::SuccessAccumulator;
use tilt_compiler::TiltProgram;

/// Outcome of a success-rate estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuccessReport {
    /// Natural log of the success probability (`-inf` if any gate fails
    /// with certainty).
    pub ln_success: f64,
    /// Success probability (may underflow to 0 for very deep circuits;
    /// use [`SuccessReport::log10_success`] for plotting).
    pub success: f64,
    /// Two-qubit gates simulated.
    pub two_qubit_gates: usize,
    /// Single-qubit gates simulated.
    pub single_qubit_gates: usize,
    /// Measurements simulated.
    pub measurements: usize,
    /// Tape moves executed.
    pub moves: usize,
    /// Motional quanta accumulated by the end of the program.
    pub final_quanta: f64,
}

impl SuccessReport {
    /// Base-10 log of the success probability.
    pub fn log10_success(&self) -> f64 {
        self.ln_success / std::f64::consts::LN_10
    }
}

/// Estimates the success rate of a scheduled TILT program under `noise`
/// and `times` (§IV-E).
///
/// Every [`TiltOp::Move`] adds `k(n)` motional quanta (with the `√n`
/// chain-length scaling); every two-qubit gate contributes the Eq. 4
/// fidelity at the chain's current heat; single-qubit gates contribute a
/// constant fidelity.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::{Compiler, DeviceSpec};
/// use tilt_sim::{estimate_success, GateTimeModel, NoiseModel};
///
/// let mut c = Circuit::new(8);
/// c.cnot(Qubit(0), Qubit(7));
/// let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
/// let r = estimate_success(&out.program, &NoiseModel::default(), &GateTimeModel::default());
/// assert!(r.two_qubit_gates >= 1);
/// assert!(r.ln_success < 0.0);
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn estimate_success(
    program: &TiltProgram,
    noise: &NoiseModel,
    times: &GateTimeModel,
) -> SuccessReport {
    let mut acc = SuccessAccumulator::new(program.spec().n_ions(), noise, times);
    for op in program.ops() {
        acc.push(op);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec};

    fn compile(c: &Circuit, n: usize, head: usize) -> TiltProgram {
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(c)
            .unwrap()
            .program
    }

    fn default_estimate(p: &TiltProgram) -> SuccessReport {
        estimate_success(p, &NoiseModel::default(), &GateTimeModel::default())
    }

    #[test]
    fn empty_program_succeeds_certainly() {
        let p = compile(&Circuit::new(4), 4, 4);
        let r = default_estimate(&p);
        assert_eq!(r.success, 1.0);
        assert_eq!(r.final_quanta, 0.0);
    }

    #[test]
    fn counts_match_program() {
        let mut c = Circuit::new(8);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(7)).measure(Qubit(7));
        let p = compile(&c, 8, 4);
        let r = default_estimate(&p);
        assert_eq!(r.two_qubit_gates, p.two_qubit_gate_count());
        assert_eq!(r.moves, p.move_count());
        assert_eq!(r.measurements, 1);
    }

    #[test]
    fn more_moves_means_lower_success() {
        // Same gates, two schedules: ping-pong between zones vs batched.
        let mut c = Circuit::new(32);
        for _ in 0..4 {
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(30), Qubit(31));
        }
        let spec = DeviceSpec::new(32, 8).unwrap();
        let greedy = Compiler::new(spec).compile(&c).unwrap().program;
        let naive = {
            let mut cc = Compiler::new(spec);
            cc.scheduler(tilt_compiler::SchedulerKind::NaiveNextGate);
            cc.compile(&c).unwrap().program
        };
        assert!(greedy.move_count() < naive.move_count());
        let rg = default_estimate(&greedy);
        let rn = default_estimate(&naive);
        assert!(rg.success > rn.success);
    }

    #[test]
    fn quanta_accumulate_per_move() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(14), Qubit(15));
        let p = compile(&c, 16, 4);
        let r = default_estimate(&p);
        let noise = NoiseModel::default();
        let expected = r.moves as f64 * noise.k_for_chain(16);
        assert!((r.final_quanta - expected).abs() < 1e-12);
    }

    #[test]
    fn log10_matches_ln() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(7));
        let r = default_estimate(&compile(&c, 8, 4));
        assert!((r.log10_success() - r.ln_success / std::f64::consts::LN_10).abs() < 1e-12);
    }

    #[test]
    fn noiseless_model_gives_unit_success() {
        let noise = NoiseModel {
            gamma_per_us: 0.0,
            epsilon: 0.0,
            single_qubit_error: 0.0,
            measurement_error: 0.0,
            k_base: 0.0,
            n_ref: 8.0,
        };
        let mut c = Circuit::new(8);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(7));
        let p = compile(&c, 8, 4);
        let r = estimate_success(&p, &noise, &GateTimeModel::default());
        assert_eq!(r.success, 1.0);
    }

    #[test]
    fn certain_failure_yields_zero_success() {
        let noise = NoiseModel {
            epsilon: 0.9,
            k_base: 100.0,
            ..NoiseModel::default()
        };
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(14), Qubit(15));
        c.cnot(Qubit(0), Qubit(1));
        let p = compile(&c, 16, 4);
        let r = estimate_success(&p, &noise, &GateTimeModel::default());
        assert_eq!(r.success, 0.0);
        assert_eq!(r.ln_success, f64::NEG_INFINITY);
    }
}
