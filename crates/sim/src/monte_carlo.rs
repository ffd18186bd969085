//! Monte Carlo cross-validation of the analytic success estimator.
//!
//! The §IV-E model multiplies per-gate fidelities into one number. This
//! module samples the same model stochastically — each gate fails as an
//! independent Bernoulli trial with its Eq. 4 probability — and reports
//! the empirical success fraction with a confidence radius. Agreement
//! between the two (see tests) validates the independence assumption is
//! implemented consistently; the sampler also gives shot-by-shot
//! distributions for harnesses that want error bars.
//!
//! Shots are *batched*: the per-gate Eq. 4 probabilities are computed
//! once per program and collapsed (in log space) into the single
//! probability that a whole shot survives, so each shot is one uniform
//! draw instead of one per gate. Because the per-gate failures are
//! independent Bernoulli trials, `P(all succeed) = Π pᵢ` exactly — the
//! batched sampler draws from the *identical* distribution as the
//! per-gate loop, at `O(shots)` instead of `O(shots · gates)`.

use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::success::estimate_success;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tilt_compiler::TiltProgram;

/// Result of a Monte Carlo estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloReport {
    /// Shots simulated.
    pub shots: usize,
    /// Shots in which every gate succeeded.
    pub successes: usize,
    /// Empirical success fraction.
    pub success_rate: f64,
    /// One standard error of the estimate (`√(p(1-p)/shots)`).
    pub std_error: f64,
}

/// Samples `shots` executions of `program`; each gate fails
/// independently with its Eq. 4 error probability, collapsed into one
/// Bernoulli draw per shot (see the module docs).
///
/// # Panics
///
/// Panics if `shots == 0`.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::{Compiler, DeviceSpec};
/// use tilt_sim::monte_carlo::sample_success;
/// use tilt_sim::{GateTimeModel, NoiseModel};
///
/// let mut c = Circuit::new(8);
/// c.cnot(Qubit(0), Qubit(7));
/// let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
/// let mc = sample_success(&out.program, &NoiseModel::default(),
///                         &GateTimeModel::default(), 2000, 7);
/// assert!(mc.success_rate > 0.9); // a short program rarely fails
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn sample_success(
    program: &TiltProgram,
    noise: &NoiseModel,
    times: &GateTimeModel,
    shots: usize,
    seed: u64,
) -> MonteCarloReport {
    assert!(shots > 0, "need at least one shot");
    // The independent per-gate trials collapse into one shot-survival
    // probability, `p_shot = Π fᵢ`: the Eq. 4 fold's success estimate.
    let p_shot = estimate_success(program, noise, times).success;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut successes = 0usize;
    for _ in 0..shots {
        if rng.gen::<f64>() < p_shot {
            successes += 1;
        }
    }
    let p = successes as f64 / shots as f64;
    MonteCarloReport {
        shots,
        successes,
        success_rate: p,
        std_error: (p * (1.0 - p) / shots as f64).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_success;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec};

    fn program() -> TiltProgram {
        let mut c = Circuit::new(16);
        for i in 0..8 {
            c.cnot(Qubit(i), Qubit(15 - i));
        }
        Compiler::new(DeviceSpec::new(16, 8).unwrap())
            .compile(&c)
            .unwrap()
            .program
    }

    #[test]
    fn agrees_with_analytic_estimator() {
        let p = program();
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let analytic = estimate_success(&p, &noise, &times);
        let mc = sample_success(&p, &noise, &times, 40_000, 3);
        let tolerance = 5.0 * mc.std_error.max(1e-4);
        assert!(
            (mc.success_rate - analytic.success).abs() < tolerance,
            "MC {} vs analytic {} (tol {tolerance})",
            mc.success_rate,
            analytic.success
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = program();
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let a = sample_success(&p, &noise, &times, 1000, 11);
        let b = sample_success(&p, &noise, &times, 1000, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn noiseless_model_always_succeeds() {
        let p = program();
        let noise = NoiseModel {
            gamma_per_us: 0.0,
            epsilon: 0.0,
            single_qubit_error: 0.0,
            measurement_error: 0.0,
            k_base: 0.0,
            n_ref: 8.0,
        };
        let mc = sample_success(&p, &noise, &GateTimeModel::default(), 500, 1);
        assert_eq!(mc.successes, 500);
        assert_eq!(mc.std_error, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_panics() {
        sample_success(
            &program(),
            &NoiseModel::default(),
            &GateTimeModel::default(),
            0,
            0,
        );
    }
}
