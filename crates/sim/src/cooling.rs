//! Sympathetic cooling for TILT (§VII of the paper, "Trapped-Ion
//! Scaling").
//!
//! A dual-species chain carries coolant ions that can be laser-cooled
//! *during* circuit execution without disturbing the data qubits,
//! resetting the chain's motional energy. The paper lists this as the
//! natural TILT extension ("would reduce the heating due to shuttling and
//! allow for longer circuits") without evaluating it; this module
//! implements that evaluation. Two trigger policies are provided — a heat
//! threshold (cool when the chain passes `q` quanta) and a periodic
//! schedule (cool every `n` moves) — each paying a configurable time cost.

use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::streaming::SuccessAccumulator;
use crate::success::SuccessReport;
use tilt_compiler::TiltProgram;

/// When to run a sympathetic-cooling round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoolingTrigger {
    /// Never cool (the paper's evaluated baseline TILT).
    Never,
    /// Cool once accumulated quanta exceed the threshold.
    QuantaThreshold(f64),
    /// Cool after every `n` tape moves.
    EveryMoves(usize),
}

/// Sympathetic-cooling policy for a TILT chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoolingPolicy {
    /// Trigger condition.
    pub trigger: CoolingTrigger,
    /// Duration of one cooling round in µs (resolved sideband cooling of
    /// the shared motional mode; hundreds of µs in practice).
    pub cooling_us: f64,
}

impl CoolingPolicy {
    /// No cooling — the configuration the paper evaluates.
    pub fn never() -> Self {
        CoolingPolicy {
            trigger: CoolingTrigger::Never,
            cooling_us: 0.0,
        }
    }

    /// Cool when the chain exceeds `quanta` motional quanta.
    pub fn threshold(quanta: f64) -> Self {
        CoolingPolicy {
            trigger: CoolingTrigger::QuantaThreshold(quanta),
            cooling_us: 400.0,
        }
    }

    /// Cool after every `moves` tape moves.
    pub fn periodic(moves: usize) -> Self {
        CoolingPolicy {
            trigger: CoolingTrigger::EveryMoves(moves),
            cooling_us: 400.0,
        }
    }

    /// Whether a move that leaves the chain at `quanta`, `moves_since_cool`
    /// moves after the last round, triggers a cooling round.
    pub(crate) fn triggers(&self, quanta: f64, moves_since_cool: usize) -> bool {
        match self.trigger {
            CoolingTrigger::Never => false,
            CoolingTrigger::QuantaThreshold(t) => quanta > t,
            CoolingTrigger::EveryMoves(n) => n > 0 && moves_since_cool >= n,
        }
    }
}

impl Default for CoolingPolicy {
    fn default() -> Self {
        CoolingPolicy::never()
    }
}

/// Success estimation under a cooling policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CooledSuccessReport {
    /// The usual per-gate statistics.
    pub report: SuccessReport,
    /// Cooling rounds performed.
    pub cooling_rounds: usize,
    /// Total time spent cooling, in µs (add to Eq. 5's execution time).
    pub cooling_time_us: f64,
}

/// Estimates the success rate of `program` with sympathetic cooling.
///
/// Identical to [`crate::estimate_success`] except that the accumulated
/// motional quanta reset to zero whenever the policy triggers. With
/// [`CoolingPolicy::never`] the two agree exactly.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::qft::qft;
/// use tilt_compiler::{Compiler, DeviceSpec};
/// use tilt_sim::cooling::{estimate_success_with_cooling, CoolingPolicy};
/// use tilt_sim::{GateTimeModel, NoiseModel};
///
/// let out = Compiler::new(DeviceSpec::new(16, 8)?).compile(&qft(16))?;
/// let noise = NoiseModel::default();
/// let times = GateTimeModel::default();
/// let hot = estimate_success_with_cooling(&out.program, &noise, &times, &CoolingPolicy::never());
/// let cold = estimate_success_with_cooling(&out.program, &noise, &times, &CoolingPolicy::threshold(1.0));
/// assert!(cold.report.success >= hot.report.success);
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn estimate_success_with_cooling(
    program: &TiltProgram,
    noise: &NoiseModel,
    times: &GateTimeModel,
    policy: &CoolingPolicy,
) -> CooledSuccessReport {
    let mut acc = SuccessAccumulator::with_cooling(program.spec().n_ions(), noise, times, policy);
    for op in program.ops() {
        acc.push(op);
    }
    acc.finish_cooled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_success;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec};

    fn ping_pong_program() -> TiltProgram {
        let mut c = Circuit::new(32);
        for _ in 0..6 {
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(30), Qubit(31));
            c.barrier();
        }
        Compiler::new(DeviceSpec::new(32, 8).unwrap())
            .compile(&c)
            .unwrap()
            .program
    }

    #[test]
    fn never_matches_plain_estimator() {
        let p = ping_pong_program();
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let plain = estimate_success(&p, &noise, &times);
        let never = estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::never());
        assert_eq!(plain, never.report);
        assert_eq!(never.cooling_rounds, 0);
    }

    #[test]
    fn cooling_improves_move_heavy_programs() {
        let p = ping_pong_program();
        assert!(p.move_count() >= 4, "{}", p.move_count());
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let hot = estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::never());
        let cold =
            estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::threshold(0.5));
        assert!(cold.cooling_rounds > 0);
        assert!(cold.report.success > hot.report.success);
        assert!(cold.report.final_quanta <= hot.report.final_quanta);
    }

    #[test]
    fn periodic_policy_counts_rounds() {
        let p = ping_pong_program();
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let every2 = estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::periodic(2));
        assert_eq!(every2.cooling_rounds, p.move_count() / 2);
        assert_eq!(every2.cooling_time_us, every2.cooling_rounds as f64 * 400.0);
    }

    #[test]
    fn tighter_threshold_cools_more_and_wins() {
        let p = ping_pong_program();
        let noise = NoiseModel::default();
        let times = GateTimeModel::default();
        let loose =
            estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::threshold(5.0));
        let tight =
            estimate_success_with_cooling(&p, &noise, &times, &CoolingPolicy::threshold(0.2));
        assert!(tight.cooling_rounds >= loose.cooling_rounds);
        assert!(tight.report.success >= loose.report.success);
    }
}
