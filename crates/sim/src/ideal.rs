//! The "Ideal TI" reference device (§VI-B of the paper).
//!
//! An ideal trapped-ion machine has enough laser controls for every qubit:
//! any pair can interact directly, so no swaps and no shuttling are ever
//! needed and the chain never heats. Gates still take their Eq. 3 time
//! (the AM gate slows with distance even on an ideal device) and carry the
//! cold-chain Eq. 4 error. Comparing against this bound shows how close
//! LinQ gets to the connectivity-unconstrained optimum (Fig. 8).

use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::streaming::SuccessAccumulator;
use crate::success::SuccessReport;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose;
use tilt_compiler::TiltOp;

/// Estimates the success rate of `circuit` on an ideal fully-connected
/// trapped-ion device.
///
/// The circuit is lowered to native gates first; qubits sit at their
/// logical chain positions (identity placement), so a gate between qubits
/// `i` and `j` runs in `τ(|i-j|)`.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::qft::qft;
/// use tilt_sim::{estimate_ideal_success, GateTimeModel, NoiseModel};
///
/// let r = estimate_ideal_success(&qft(8), &NoiseModel::default(), &GateTimeModel::default());
/// assert!(r.success > 0.0);
/// assert_eq!(r.moves, 0);
/// ```
pub fn estimate_ideal_success(
    circuit: &Circuit,
    noise: &NoiseModel,
    times: &GateTimeModel,
) -> SuccessReport {
    // A program that never moves: the Eq. 4 fold on a cold chain.
    let mut acc = SuccessAccumulator::new(circuit.n_qubits(), noise, times);
    for &gate in &decompose(circuit) {
        acc.push(&TiltOp::Gate { gate, head_pos: 0 });
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_success;
    use tilt_circuit::Qubit;
    use tilt_compiler::{Compiler, DeviceSpec};

    #[test]
    fn ideal_never_moves_or_heats() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(15));
        let r = estimate_ideal_success(&c, &NoiseModel::default(), &GateTimeModel::default());
        assert_eq!(r.moves, 0);
        assert_eq!(r.final_quanta, 0.0);
        assert_eq!(r.two_qubit_gates, 1);
    }

    #[test]
    fn ideal_upper_bounds_tilt_on_swap_heavy_circuits() {
        let mut c = Circuit::new(16);
        for i in 0..8 {
            c.cnot(Qubit(i), Qubit(15 - i));
        }
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let ideal = estimate_ideal_success(&c, &noise, &times);
        let out = Compiler::new(DeviceSpec::new(16, 4).unwrap())
            .compile(&c)
            .unwrap();
        let tilt = estimate_success(&out.program, &noise, &times);
        assert!(ideal.success > tilt.success);
    }

    #[test]
    fn gate_counts_match_native_decomposition() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0)).cphase(Qubit(0), Qubit(3), 0.5);
        let r = estimate_ideal_success(&c, &NoiseModel::default(), &GateTimeModel::default());
        assert_eq!(r.two_qubit_gates, 2); // cphase = 2 XX
    }

    #[test]
    fn distance_still_costs_time_fidelity() {
        let mut near = Circuit::new(16);
        near.cnot(Qubit(0), Qubit(1));
        let mut far = Circuit::new(16);
        far.cnot(Qubit(0), Qubit(15));
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let rn = estimate_ideal_success(&near, &noise, &times);
        let rf = estimate_ideal_success(&far, &noise, &times);
        assert!(rn.success > rf.success);
    }
}
