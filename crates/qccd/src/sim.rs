//! QCCD success-rate and timing estimation.
//!
//! Replays a compiled primitive trace, tracking per-trap motional quanta.
//! Two-qubit gates use the same Eq. 3 gate-time and Eq. 4 fidelity models
//! as the TILT simulator — the architectures differ only in *where heat
//! comes from* (split/merge/shuttle vs whole-chain tape moves) and in the
//! sympathetic cooling QCCD devices perform between primitives.

use crate::params::QccdParams;
use crate::program::{QccdOp, QccdProgram};
use crate::spec::QccdSpec;
use tilt_sim::{GateTimeModel, NoiseModel};

/// Outcome of a QCCD estimation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QccdReport {
    /// Natural log of the success probability.
    pub ln_success: f64,
    /// Success probability.
    pub success: f64,
    /// Two-qubit gates simulated.
    pub two_qubit_gates: usize,
    /// Single-qubit gates simulated.
    pub single_qubit_gates: usize,
    /// Measurements simulated.
    pub measurements: usize,
    /// Ion transports (split/shuttle/merge sequences).
    pub transports: usize,
    /// Individual shuttle segments traversed.
    pub shuttle_segments: usize,
    /// Sympathetic cooling rounds triggered.
    pub cooling_rounds: usize,
    /// Serial execution-time estimate in µs.
    pub exec_time_us: f64,
    /// Hottest any chain got, in quanta.
    pub peak_quanta: f64,
}

impl QccdReport {
    /// Base-10 log of the success probability.
    pub fn log10_success(&self) -> f64 {
        self.ln_success / std::f64::consts::LN_10
    }
}

/// Estimates the success rate of a compiled QCCD program.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
/// use tilt_sim::{GateTimeModel, NoiseModel};
///
/// let mut c = Circuit::new(8);
/// c.cnot(Qubit(0), Qubit(7));
/// let spec = QccdSpec::new(2, 6)?;
/// let program = compile_qccd(&c, &spec)?;
/// let r = estimate_qccd_success(
///     &program,
///     &NoiseModel::default(),
///     &GateTimeModel::default(),
///     &QccdParams::default(),
/// );
/// assert!(r.success > 0.0 && r.success < 1.0);
/// # Ok::<(), tilt_qccd::QccdError>(())
/// ```
pub fn estimate_qccd_success(
    program: &QccdProgram,
    noise: &NoiseModel,
    times: &GateTimeModel,
    params: &QccdParams,
) -> QccdReport {
    let mut estimator = QccdEstimator::new(program.spec(), noise, times, params);
    estimator.push(program.ops());
    estimator.finish()
}

/// The QCCD estimate as a fold over the primitive trace, as it is
/// routed; [`estimate_qccd_success`] drives it over a whole program.
/// State is one heat level per trap.
#[derive(Clone, Debug)]
pub struct QccdEstimator {
    noise: NoiseModel,
    times: GateTimeModel,
    params: QccdParams,
    quanta: Vec<f64>,
    in_flight: f64,
    report: QccdReport,
}

impl QccdEstimator {
    /// Starts an estimate for a trace on `spec` under the given models.
    pub fn new(
        spec: &QccdSpec,
        noise: &NoiseModel,
        times: &GateTimeModel,
        params: &QccdParams,
    ) -> Self {
        QccdEstimator {
            noise: *noise,
            times: *times,
            params: *params,
            quanta: vec![0.0; spec.n_traps()],
            in_flight: 0.0,
            report: QccdReport::default(),
        }
    }

    /// Folds the next primitives of the trace into the estimate.
    pub fn push(&mut self, ops: &[QccdOp]) {
        let (noise, times, params) = (&self.noise, &self.times, &self.params);
        let quanta = &mut self.quanta;
        let (mut r, mut in_flight) = (self.report, self.in_flight);
        // Chain-length scaling of heating, as for TILT tape moves (§IV-E).
        let scale = |len: usize| (len as f64 / noise.n_ref).sqrt();
        for op in ops {
            match *op {
                QccdOp::EdgeMove {
                    trap,
                    sites,
                    chain_len,
                } => {
                    quanta[trap] +=
                        params.edge_move_quanta_per_site * sites as f64 * scale(chain_len);
                    r.exec_time_us += params.edge_move_us_per_site * sites as f64;
                }
                QccdOp::Split {
                    trap,
                    chain_len_before,
                } => {
                    r.transports += 1;
                    quanta[trap] += params.split_quanta * scale(chain_len_before);
                    r.exec_time_us += params.split_us;
                }
                QccdOp::ShuttleSegment { .. } => {
                    r.shuttle_segments += 1;
                    in_flight += params.shuttle_quanta_per_segment;
                    r.exec_time_us += params.shuttle_segment_us;
                }
                QccdOp::Merge {
                    trap,
                    chain_len_after,
                } => {
                    quanta[trap] += params.merge_quanta * scale(chain_len_after) + in_flight;
                    in_flight = 0.0;
                    r.exec_time_us += params.merge_us;
                }
                QccdOp::TwoQubitGate { trap, distance } => {
                    r.two_qubit_gates += 1;
                    let f = noise.two_qubit_fidelity(times.two_qubit_us(distance), quanta[trap]);
                    r.ln_success += f.ln();
                    r.exec_time_us += times.two_qubit_us(distance);
                }
                QccdOp::SingleQubitGate { .. } => {
                    r.single_qubit_gates += 1;
                    r.ln_success += noise.single_qubit_fidelity().ln();
                    r.exec_time_us += times.single_qubit_us;
                }
                QccdOp::Measure { .. } => {
                    r.measurements += 1;
                    r.ln_success += noise.measurement_fidelity().ln();
                    r.exec_time_us += times.measure_us;
                }
            }
            // Sympathetic cooling: any chain past the threshold is re-cooled.
            for q in quanta.iter_mut() {
                if *q > r.peak_quanta {
                    r.peak_quanta = *q;
                }
                if *q > params.cooling_threshold_quanta {
                    *q = 0.0;
                    r.cooling_rounds += 1;
                    r.exec_time_us += params.cooling_us;
                }
            }
        }
        self.report = r;
        self.in_flight = in_flight;
    }

    /// The estimate over everything pushed so far.
    pub fn finish(&self) -> QccdReport {
        QccdReport {
            success: self.report.ln_success.exp(),
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_qccd;
    use tilt_circuit::{Circuit, Qubit};

    fn estimate(c: &Circuit, spec: &QccdSpec) -> QccdReport {
        let p = compile_qccd(c, spec).unwrap();
        estimate_qccd_success(
            &p,
            &NoiseModel::default(),
            &GateTimeModel::default(),
            &QccdParams::default(),
        )
    }

    #[test]
    fn local_gates_match_cold_chain_fidelity() {
        let spec = QccdSpec::new(1, 10).unwrap();
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1));
        let r = estimate(&c, &spec);
        let noise = NoiseModel::default();
        let expected = noise.two_qubit_fidelity(GateTimeModel::default().two_qubit_us(1), 0.0);
        assert!((r.success - expected).abs() < 1e-12);
        assert_eq!(r.transports, 0);
    }

    #[test]
    fn transports_heat_the_chain() {
        let spec = QccdSpec::new(2, 8).unwrap();
        let mut local = Circuit::new(12);
        local.cnot(Qubit(0), Qubit(1));
        let mut cross = Circuit::new(12);
        cross.cnot(Qubit(0), Qubit(11));
        let rl = estimate(&local, &spec);
        let rc = estimate(&cross, &spec);
        assert!(rc.success < rl.success);
        assert_eq!(rc.transports, 1);
        assert!(rc.peak_quanta > 0.0);
    }

    #[test]
    fn cooling_bounds_heat() {
        let spec = QccdSpec::new(2, 10).unwrap();
        let mut c = Circuit::new(14);
        // Qubit 0 ping-pongs between a partner in each trap, forcing a
        // transport per gate and piling up heat.
        for _ in 0..10 {
            c.cnot(Qubit(0), Qubit(13));
            c.cnot(Qubit(0), Qubit(5));
        }
        let p = compile_qccd(&c, &spec).unwrap();
        let cooled = estimate_qccd_success(
            &p,
            &NoiseModel::default(),
            &GateTimeModel::default(),
            &QccdParams::default(),
        );
        let uncooled = estimate_qccd_success(
            &p,
            &NoiseModel::default(),
            &GateTimeModel::default(),
            &QccdParams::default().without_cooling(),
        );
        assert!(cooled.cooling_rounds > 0);
        assert_eq!(uncooled.cooling_rounds, 0);
        assert!(cooled.success > uncooled.success);
        assert!(uncooled.peak_quanta > cooled.peak_quanta);
    }

    #[test]
    fn report_counters_match_program() {
        let spec = QccdSpec::for_qubits(64, 16).unwrap();
        let mut c = Circuit::new(64);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(63));
        c.measure(Qubit(63));
        let p = compile_qccd(&c, &spec).unwrap();
        let r = estimate_qccd_success(
            &p,
            &NoiseModel::default(),
            &GateTimeModel::default(),
            &QccdParams::default(),
        );
        assert_eq!(r.two_qubit_gates, p.two_qubit_gate_count());
        assert_eq!(r.transports, p.transport_count());
        assert_eq!(r.shuttle_segments, p.shuttle_segment_count());
        assert_eq!(r.single_qubit_gates, 1);
        assert_eq!(r.measurements, 1);
    }

    #[test]
    fn exec_time_is_positive_and_grows_with_work() {
        let spec = QccdSpec::new(2, 8).unwrap();
        let mut small = Circuit::new(12);
        small.cnot(Qubit(0), Qubit(1));
        let mut big = Circuit::new(12);
        for _ in 0..5 {
            big.cnot(Qubit(0), Qubit(11));
            big.cnot(Qubit(5), Qubit(6));
        }
        assert!(estimate(&big, &spec).exec_time_us > estimate(&small, &spec).exec_time_us);
    }
}
