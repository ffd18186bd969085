//! The estimator folds: Eq. 4 success and Eq. 5 execution time, one op
//! at a time.
//!
//! Both estimates are sequential folds over the scheduled op stream.
//! [`SuccessAccumulator`] and [`ExecTimeAccumulator`] are the only
//! implementations: [`estimate_success`](crate::estimate_success),
//! [`estimate_success_with_cooling`](crate::estimate_success_with_cooling)
//! and [`execution_time_us`](crate::execution_time_us) drive them over a
//! finished [`TiltProgram`](tilt_compiler::TiltProgram), and a streaming
//! compile drives them over each increment as it is scheduled, so both
//! produce **bit-identical** `ln_success` and `exec_time_us`.
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{Compiler, DeviceSpec};
//! use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};
//! use tilt_sim::{estimate_success, ExecTimeModel, GateTimeModel, NoiseModel};
//!
//! let mut c = Circuit::new(8);
//! c.cnot(Qubit(0), Qubit(7));
//! let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
//! let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
//! let mut acc = SuccessAccumulator::new(8, &noise, &times);
//! let mut exec = ExecTimeAccumulator::new(8, &times, &ExecTimeModel::default());
//! for op in out.program.ops() {
//!     acc.push(op);
//!     exec.push(op);
//! }
//! let mono = estimate_success(&out.program, &noise, &times);
//! assert_eq!(acc.finish().ln_success, mono.ln_success);
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

use crate::cooling::{CooledSuccessReport, CoolingPolicy};
use crate::exec_time::ExecTimeModel;
use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::success::SuccessReport;
use tilt_circuit::Gate;
use tilt_compiler::TiltOp;

/// The Eq. 4 success fold, applied one op at a time.
///
/// Every [`TiltOp::Move`] adds `k(n)` motional quanta (with the `√n`
/// chain-length scaling) and may trigger a sympathetic-cooling round
/// that resets them; every two-qubit gate contributes the Eq. 4 fidelity
/// at the chain's current heat; single-qubit gates contribute a constant
/// fidelity. Fidelities multiply in log space so deep circuits underflow
/// gracefully. State is O(1).
#[derive(Clone, Debug)]
pub struct SuccessAccumulator {
    noise: NoiseModel,
    times: GateTimeModel,
    cooling: CoolingPolicy,
    /// Per-move quanta for this chain length (`k(n)` with the `√n`
    /// scaling), fixed at construction.
    k: f64,
    quanta: f64,
    ln_success: f64,
    two_q: usize,
    one_q: usize,
    meas: usize,
    moves: usize,
    moves_since_cool: usize,
    cooling_rounds: usize,
}

impl SuccessAccumulator {
    /// Starts an estimate for a chain of `n_ions` ions under `noise` and
    /// `times`, without cooling.
    pub fn new(n_ions: usize, noise: &NoiseModel, times: &GateTimeModel) -> Self {
        SuccessAccumulator::with_cooling(n_ions, noise, times, &CoolingPolicy::never())
    }

    /// [`SuccessAccumulator::new`] under a sympathetic-cooling policy.
    pub fn with_cooling(
        n_ions: usize,
        noise: &NoiseModel,
        times: &GateTimeModel,
        cooling: &CoolingPolicy,
    ) -> Self {
        SuccessAccumulator {
            noise: *noise,
            times: *times,
            cooling: *cooling,
            k: noise.k_for_chain(n_ions),
            quanta: 0.0,
            ln_success: 0.0,
            two_q: 0,
            one_q: 0,
            meas: 0,
            moves: 0,
            moves_since_cool: 0,
            cooling_rounds: 0,
        }
    }

    /// Folds one scheduled op into the estimate.
    #[inline]
    pub fn push(&mut self, op: &TiltOp) {
        match op {
            TiltOp::Move { .. } => {
                self.moves += 1;
                self.moves_since_cool += 1;
                self.quanta += self.k;
                if self.cooling.triggers(self.quanta, self.moves_since_cool) {
                    self.quanta = 0.0;
                    self.moves_since_cool = 0;
                    self.cooling_rounds += 1;
                }
            }
            TiltOp::Gate { gate, .. } => {
                let f = match gate {
                    // Resets are measurement-class operations (optical
                    // pumping): same fidelity budget, counted together.
                    Gate::Measure(_) | Gate::Reset(_) => {
                        self.meas += 1;
                        self.noise.measurement_fidelity()
                    }
                    g if g.is_two_qubit() => {
                        self.two_q += 1;
                        self.noise
                            .two_qubit_fidelity(self.times.gate_us(g), self.quanta)
                    }
                    Gate::Barrier => 1.0,
                    _ => {
                        self.one_q += 1;
                        self.noise.single_qubit_fidelity()
                    }
                };
                self.ln_success += f.ln(); // ln(0) = -inf propagates correctly
            }
        }
    }

    /// The estimate over everything pushed so far. The accumulator stays
    /// usable; this is a snapshot, not a terminator.
    pub fn finish(&self) -> SuccessReport {
        self.finish_cooled().report
    }

    /// [`SuccessAccumulator::finish`] with the cooling rounds and the
    /// time they cost.
    pub fn finish_cooled(&self) -> CooledSuccessReport {
        CooledSuccessReport {
            report: SuccessReport {
                ln_success: self.ln_success,
                success: self.ln_success.exp(),
                two_qubit_gates: self.two_q,
                single_qubit_gates: self.one_q,
                measurements: self.meas,
                moves: self.moves,
                final_quanta: self.quanta,
            },
            cooling_rounds: self.cooling_rounds,
            cooling_time_us: self.cooling_rounds as f64 * self.cooling.cooling_us,
        }
    }
}

/// The Eq. 5 execution-time fold, applied one op at a time.
///
/// State is O(chain): the per-qubit layer indices and per-layer maxima
/// of the current head-position segment (a tape move fences layering, so
/// the segment state never outlives two moves).
#[derive(Clone, Debug)]
pub struct ExecTimeAccumulator {
    times: GateTimeModel,
    exec: ExecTimeModel,
    level: Vec<usize>,
    layer_max: Vec<f64>,
    total_us: f64,
    /// Travel distance folded exactly like
    /// [`TiltProgram::move_distance_ions`](tilt_compiler::TiltProgram::move_distance_ions).
    move_distance_ions: usize,
    last_head: Option<usize>,
}

impl ExecTimeAccumulator {
    /// Starts a timing estimate for a chain of `n_ions` ions.
    pub fn new(n_ions: usize, times: &GateTimeModel, exec: &ExecTimeModel) -> Self {
        ExecTimeAccumulator {
            times: *times,
            exec: *exec,
            level: vec![0; n_ions],
            layer_max: Vec::new(),
            total_us: 0.0,
            move_distance_ions: 0,
            last_head: None,
        }
    }

    /// Folds one scheduled op into the estimate.
    #[inline]
    pub fn push(&mut self, op: &TiltOp) {
        match op {
            TiltOp::Move { to } => {
                // A move fences layering: close the segment.
                self.total_us += self.layer_max.iter().sum::<f64>();
                self.layer_max.clear();
                self.level.fill(0);
                if let Some(p) = self.last_head {
                    self.move_distance_ions += p.abs_diff(*to);
                }
                self.last_head = Some(*to);
            }
            TiltOp::Gate { gate, head_pos } => {
                if self.last_head.is_none() {
                    self.last_head = Some(*head_pos);
                }
                if matches!(gate, Gate::Barrier) {
                    return;
                }
                let qs = gate.qubits();
                let layer = qs.iter().map(|q| self.level[q.index()]).max().unwrap_or(0);
                for q in &qs {
                    self.level[q.index()] = layer + 1;
                }
                if self.layer_max.len() <= layer {
                    self.layer_max.resize(layer + 1, 0.0);
                }
                let dur = self.times.gate_us(gate);
                if dur > self.layer_max[layer] {
                    self.layer_max[layer] = dur;
                }
            }
        }
    }

    /// Total execution time in µs over everything pushed so far: the
    /// open segment's layers plus the Eq. 5 travel term. Like
    /// [`SuccessAccumulator::finish`] this is a snapshot, not a
    /// terminator.
    pub fn finish(&self) -> f64 {
        (self.total_us + self.layer_max.iter().sum::<f64>())
            + self.move_distance_ions as f64 * self.exec.ion_spacing_um
                / self.exec.shuttle_um_per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooling::CoolingTrigger;
    use crate::{estimate_success, estimate_success_with_cooling, execution_time_us};
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec, TiltProgram};

    /// The seed's whole-program Eq. 4 loop (with cooling), kept as the
    /// oracle the fold is checked against.
    fn oracle_success(
        program: &TiltProgram,
        noise: &NoiseModel,
        times: &GateTimeModel,
        policy: &CoolingPolicy,
    ) -> CooledSuccessReport {
        let k = noise.k_for_chain(program.spec().n_ions());
        let (mut quanta, mut ln_success) = (0.0f64, 0.0f64);
        let (mut since, mut rounds) = (0usize, 0usize);
        let (mut two_q, mut one_q, mut meas, mut moves) = (0usize, 0usize, 0usize, 0usize);
        for op in program.ops() {
            match op {
                TiltOp::Move { .. } => {
                    moves += 1;
                    since += 1;
                    quanta += k;
                    let cool = match policy.trigger {
                        CoolingTrigger::Never => false,
                        CoolingTrigger::QuantaThreshold(t) => quanta > t,
                        CoolingTrigger::EveryMoves(n) => n > 0 && since >= n,
                    };
                    if cool {
                        quanta = 0.0;
                        since = 0;
                        rounds += 1;
                    }
                }
                TiltOp::Gate { gate, .. } => {
                    let f = match gate {
                        Gate::Measure(_) | Gate::Reset(_) => {
                            meas += 1;
                            noise.measurement_fidelity()
                        }
                        g if g.is_two_qubit() => {
                            two_q += 1;
                            noise.two_qubit_fidelity(times.gate_us(g), quanta)
                        }
                        Gate::Barrier => 1.0,
                        _ => {
                            one_q += 1;
                            noise.single_qubit_fidelity()
                        }
                    };
                    ln_success += f.ln();
                }
            }
        }
        CooledSuccessReport {
            report: SuccessReport {
                ln_success,
                success: ln_success.exp(),
                two_qubit_gates: two_q,
                single_qubit_gates: one_q,
                measurements: meas,
                moves,
                final_quanta: quanta,
            },
            cooling_rounds: rounds,
            cooling_time_us: rounds as f64 * policy.cooling_us,
        }
    }

    /// The seed's whole-program Eq. 5 loop, kept as the oracle.
    fn oracle_exec_time(program: &TiltProgram, times: &GateTimeModel, exec: &ExecTimeModel) -> f64 {
        let mut total_us = 0.0f64;
        let mut level = vec![0usize; program.spec().n_ions()];
        let mut layer_max: Vec<f64> = Vec::new();
        for op in program.ops() {
            match op {
                TiltOp::Move { .. } => {
                    total_us += layer_max.iter().sum::<f64>();
                    layer_max.clear();
                    level.iter_mut().for_each(|l| *l = 0);
                }
                TiltOp::Gate { gate, .. } => {
                    if matches!(gate, Gate::Barrier) {
                        continue;
                    }
                    let qs = gate.qubits();
                    let layer = qs.iter().map(|q| level[q.index()]).max().unwrap_or(0);
                    for q in &qs {
                        level[q.index()] = layer + 1;
                    }
                    if layer_max.len() <= layer {
                        layer_max.resize(layer + 1, 0.0);
                    }
                    layer_max[layer] = layer_max[layer].max(times.gate_us(gate));
                }
            }
        }
        total_us += layer_max.iter().sum::<f64>();
        total_us += exec.travel_um(program) / exec.shuttle_um_per_us;
        total_us
    }

    fn workload(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..gates {
            let a = Qubit((rng() as usize) % n);
            let b = Qubit((rng() as usize) % n);
            match rng() % 10 {
                0 => {
                    c.barrier();
                }
                1 => {
                    c.measure(a);
                }
                2 | 3 => {
                    c.h(a);
                }
                _ if a != b => {
                    c.cnot(a, b);
                }
                _ => {
                    c.t(a);
                }
            }
        }
        c
    }

    fn compile(c: &Circuit, n: usize, head: usize) -> TiltProgram {
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(c)
            .unwrap()
            .program
    }

    #[test]
    fn success_fold_is_bit_identical_to_the_monolithic_estimator() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        for (n, head, gates, seed) in [(8, 4, 60, 3), (16, 4, 400, 11), (24, 8, 900, 29)] {
            let p = compile(&workload(n, gates, seed), n, head);
            let mono = oracle_success(&p, &noise, &times, &CoolingPolicy::never()).report;
            assert_eq!(estimate_success(&p, &noise, &times), mono);
            let mut acc = SuccessAccumulator::new(n, &noise, &times);
            for op in p.ops() {
                acc.push(op);
            }
            let s = acc.finish();
            assert_eq!(s.ln_success, mono.ln_success);
            assert_eq!(s.success, mono.success);
            assert_eq!(s.final_quanta, mono.final_quanta);
            assert_eq!(s.two_qubit_gates, mono.two_qubit_gates);
            assert_eq!(s.single_qubit_gates, mono.single_qubit_gates);
            assert_eq!(s.measurements, mono.measurements);
            assert_eq!(s.moves, mono.moves);
        }
    }

    #[test]
    fn exec_time_fold_is_bit_identical_to_the_monolithic_estimator() {
        let times = GateTimeModel::default();
        let exec = ExecTimeModel::default();
        for (n, head, gates, seed) in [(8, 4, 60, 5), (16, 4, 400, 17), (24, 8, 900, 31)] {
            let p = compile(&workload(n, gates, seed), n, head);
            let mono = oracle_exec_time(&p, &times, &exec);
            assert_eq!(
                execution_time_us(&p, &times, &exec).to_bits(),
                mono.to_bits()
            );
            let mut acc = ExecTimeAccumulator::new(n, &times, &exec);
            for op in p.ops() {
                acc.push(op);
            }
            assert_eq!(acc.finish(), mono);
        }
    }

    #[test]
    fn cooled_fold_is_bit_identical_to_the_seed_loop() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let p = compile(&workload(16, 400, 11), 16, 4);
        for policy in [
            CoolingPolicy::threshold(0.5),
            CoolingPolicy::periodic(3),
            CoolingPolicy::periodic(0),
        ] {
            let want = oracle_success(&p, &noise, &times, &policy);
            let got = estimate_success_with_cooling(&p, &noise, &times, &policy);
            assert_eq!(got, want, "{policy:?}");
            assert_eq!(
                got.report.ln_success.to_bits(),
                want.report.ln_success.to_bits()
            );
        }
    }

    #[test]
    fn success_snapshot_does_not_consume_the_accumulator() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let p = compile(&workload(8, 40, 7), 8, 4);
        let mut acc = SuccessAccumulator::new(8, &noise, &times);
        for op in p.ops() {
            acc.push(op);
            let _ = acc.finish(); // mid-stream snapshots are fine
        }
        assert_eq!(
            acc.finish().ln_success,
            estimate_success(&p, &noise, &times).ln_success
        );
    }

    #[test]
    fn empty_stream_is_certain_success_in_zero_time() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let acc = SuccessAccumulator::new(4, &noise, &times);
        assert_eq!(acc.finish().success, 1.0);
        let exec = ExecTimeAccumulator::new(4, &times, &ExecTimeModel::default());
        assert_eq!(exec.finish(), 0.0);
    }
}
