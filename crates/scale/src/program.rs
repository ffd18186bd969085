//! Splitting a circuit across ELUs and estimating the modular machine.

use crate::partition::Partition;
use crate::spec::{ScaleError, ScaleSpec, COMM_SLOTS};
use tilt_circuit::{validate_gate, Circuit, Gate, Qubit};
use tilt_compiler::decompose::decompose_gate;
use tilt_compiler::{CompileOutput, CompileReport};
use tilt_sim::{estimate_success, execution_time_us, ExecTimeModel, GateTimeModel, NoiseModel};

/// A circuit compiled onto an ELU array.
#[derive(Clone, Debug)]
pub struct ScaledProgram {
    /// The ELU template used.
    pub spec: ScaleSpec,
    /// The partition of logical qubits.
    pub partition: Partition,
    /// One LinQ compilation per ELU (local gates plus the local halves of
    /// remote gates).
    pub elu_outputs: Vec<CompileOutput>,
    /// EPR pairs consumed (one per remote two-qubit gate).
    pub epr_pairs: usize,
}

/// Success/time estimate for a [`ScaledProgram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleReport {
    /// Natural log of the overall success probability.
    pub ln_success: f64,
    /// Overall success probability: the product of every ELU's local
    /// success and the EPR fidelity per remote gate.
    pub success: f64,
    /// Remote (cross-ELU) two-qubit gates.
    pub remote_gates: usize,
    /// Makespan estimate in µs: the slowest ELU plus EPR generation.
    /// Generation overlaps up to [`crate::spec::COMM_SLOTS`] pairs in
    /// flight — the compiler alternates comm slots precisely so
    /// back-to-back remote gates can pipeline — so the photonic term is
    /// `ceil(pairs / COMM_SLOTS) · generation_us`, not a fully serial
    /// `pairs · generation_us`.
    pub exec_time_us: f64,
    /// Tape moves summed over all ELUs.
    pub total_moves: usize,
    /// Swaps summed over all ELUs.
    pub total_swaps: usize,
}

impl ScaleReport {
    /// Base-10 log of the success probability.
    pub fn log10_success(&self) -> f64 {
        self.ln_success / std::f64::consts::LN_10
    }
}

/// The decompose → split → teleport-template fold, one input gate at a
/// time: the only ELU splitter, shared by [`compile_scaled`] and the
/// streaming compiler.
///
/// Local gates go to their ELU verbatim (relabelled to local positions).
/// A remote gate between ELUs `A` and `B` is lowered to the
/// gate-teleportation template: in `A`, a CNOT from the data ion onto the
/// communication ion plus its measurement; in `B`, the original
/// interaction applied from the communication ion plus its measurement;
/// one EPR pair is consumed.
///
/// The template is a cost model: it prepares no EPR pair on the
/// communication ions and applies no classically controlled Pauli
/// corrections, so the ELU programs it yields are not an executable
/// program for the remote gate (see the crate docs).
pub(crate) struct Splitter {
    pub(crate) partition: Partition,
    n_qubits: usize,
    pub(crate) epr_pairs: usize,
    /// Per-ELU usage of each comm slot: once a communication ion has
    /// hosted (and been measured for) one EPR half, it must be pumped
    /// back to |0⟩ before the next remote gate can reuse it.
    comm_used: Vec<[bool; COMM_SLOTS]>,
    /// Scratch for the per-gate native decomposition.
    native: Circuit,
    pub(crate) input_gate_count: usize,
}

impl Splitter {
    pub(crate) fn new(spec: &ScaleSpec, n_qubits: usize) -> Self {
        let partition = Partition::new(spec, n_qubits);
        let n_elus = partition.n_elus();
        Splitter {
            partition,
            n_qubits,
            epr_pairs: 0,
            comm_used: vec![[false; COMM_SLOTS]; n_elus],
            native: Circuit::new(n_qubits),
            input_gate_count: 0,
        }
    }

    /// Validates the next input gate, then hands each ELU's share of its
    /// native expansion to `emit(elu, gate)`, in program order.
    ///
    /// # Errors
    ///
    /// [`ScaleError::InvalidCircuit`] with the gate's input index.
    pub(crate) fn split(
        &mut self,
        g: &Gate,
        mut emit: impl FnMut(usize, Gate),
    ) -> Result<(), ScaleError> {
        validate_gate(g, self.input_gate_count, self.n_qubits)?;
        self.input_gate_count += 1;
        self.native.reset(self.n_qubits);
        decompose_gate(&mut self.native, g);
        let partition = &self.partition;
        for gate in self.native.gates() {
            match *gate {
                Gate::Barrier => {
                    for e in 0..partition.n_elus() {
                        emit(e, Gate::Barrier);
                    }
                }
                g if g.is_two_qubit() => {
                    let qs = g.operands();
                    let (a, b) = (qs[0].index(), qs[1].index());
                    let (ea, eb) = (partition.elu_of(a), partition.elu_of(b));
                    let (la, lb) = (Qubit(partition.local_of(a)), Qubit(partition.local_of(b)));
                    if ea == eb {
                        emit(ea, g.map_qubits(|q| if q.index() == a { la } else { lb }));
                        continue;
                    }
                    // Alternate comm slots so back-to-back remote gates
                    // can overlap. A slot that already served a remote
                    // gate holds a measured ion; reset it before
                    // replaying the template onto it.
                    let slot = self.epr_pairs % COMM_SLOTS;
                    let comm = Qubit(partition.comm_position(slot));
                    self.epr_pairs += 1;
                    for e in [ea, eb] {
                        if std::mem::replace(&mut self.comm_used[e][slot], true) {
                            emit(e, Gate::Reset(comm));
                        }
                    }
                    emit(ea, Gate::Cnot(la, comm));
                    emit(ea, Gate::Measure(comm));
                    emit(eb, g.map_qubits(|q| if q.index() == a { comm } else { lb }));
                    emit(eb, Gate::Measure(comm));
                }
                g => {
                    let Some(q) = g.operands().first().map(|q| q.index()) else {
                        continue;
                    };
                    let local = Qubit(partition.local_of(q));
                    emit(partition.elu_of(q), g.map_qubits(|_| local));
                }
            }
        }
        Ok(())
    }
}

/// The §VII aggregation over per-ELU `(ln_success, exec_time_us, report)`
/// in ELU order: the only one, shared by [`estimate_scaled`] and the
/// streaming compiler.
///
/// ELU success rates multiply with the EPR fidelity of every remote
/// gate. The makespan is the slowest ELU plus EPR generation, which
/// overlaps up to [`COMM_SLOTS`] pairs in flight (the splitter
/// alternates comm slots for exactly this), so the photonic term
/// serializes only across generation *rounds*.
pub(crate) fn aggregate<'a>(
    spec: &ScaleSpec,
    epr_pairs: usize,
    elus: impl IntoIterator<Item = (f64, f64, &'a CompileReport)>,
) -> ScaleReport {
    let mut ln_success = 0.0f64;
    let mut slowest_elu_us = 0.0f64;
    let mut total_moves = 0usize;
    let mut total_swaps = 0usize;
    for (elu_ln_success, elu_us, report) in elus {
        ln_success += elu_ln_success;
        slowest_elu_us = slowest_elu_us.max(elu_us);
        total_moves += report.move_count;
        total_swaps += report.swap_count;
    }
    ln_success += epr_pairs as f64 * spec.epr.fidelity.ln();
    let epr_rounds = epr_pairs.div_ceil(COMM_SLOTS);
    ScaleReport {
        ln_success,
        success: ln_success.exp(),
        remote_gates: epr_pairs,
        exec_time_us: slowest_elu_us + epr_rounds as f64 * spec.epr.generation_us,
        total_moves,
        total_swaps,
    }
}

/// Compiles `circuit` onto the ELU array described by `spec`.
///
/// The [`Splitter`] lowers each gate to two-qubit granularity and
/// splits it across the ELUs (remote gates become gate-teleportation
/// templates consuming one EPR pair each); each ELU's stream is then
/// compiled by its own LinQ instance.
///
/// # Errors
///
/// Propagates ELU-policy validation, invalid input gates (with their
/// index in `circuit`), and per-ELU compilation failures.
pub fn compile_scaled(circuit: &Circuit, spec: &ScaleSpec) -> Result<ScaledProgram, ScaleError> {
    let compiler = spec.elu_compiler()?;
    let mut splitter = Splitter::new(spec, circuit.n_qubits());
    let mut streams = vec![Circuit::new(spec.ions_per_elu()); splitter.partition.n_elus()];
    for g in circuit {
        splitter.split(g, |e, gate| {
            streams[e].push(gate);
        })?;
    }
    let elu_outputs = streams
        .iter()
        .enumerate()
        .map(|(e, stream)| {
            compiler
                .compile(stream)
                .map_err(|err| ScaleError::elu(e, &err))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScaledProgram {
        spec: *spec,
        partition: splitter.partition,
        elu_outputs,
        epr_pairs: splitter.epr_pairs,
    })
}

/// Estimates a compiled ELU array under the given noise and timing
/// models.
///
/// Each ELU is estimated with the ordinary TILT estimator over its own
/// (short) chain — so per-move heating benefits from the `√n` scaling —
/// and every EPR pair multiplies in the photonic-link fidelity.
pub fn estimate_scaled(
    program: &ScaledProgram,
    noise: &NoiseModel,
    times: &GateTimeModel,
) -> ScaleReport {
    aggregate(
        &program.spec,
        program.epr_pairs,
        program.elu_outputs.iter().map(|out| {
            (
                estimate_success(&out.program, noise, times).ln_success,
                execution_time_us(&out.program, times, &ExecTimeModel::default()),
                &out.report,
            )
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_benchmarks::qaoa::qaoa_maxcut;
    use tilt_compiler::{Compiler, DeviceSpec};

    fn models() -> (NoiseModel, GateTimeModel) {
        (NoiseModel::default(), GateTimeModel::default())
    }

    #[test]
    fn local_only_circuit_uses_no_epr() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1)).cnot(Qubit(6), Qubit(7));
        let spec = ScaleSpec::new(10, 4).unwrap(); // capacity 8 → one ELU
        let p = compile_scaled(&c, &spec).unwrap();
        assert_eq!(p.elu_outputs.len(), 1);
        assert_eq!(p.epr_pairs, 0);
    }

    #[test]
    fn boundary_gates_cost_one_epr_each() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(7), Qubit(8)); // crosses the ELU boundary (cap 8)
        c.cnot(Qubit(0), Qubit(1)); // local
        let spec = ScaleSpec::new(10, 4).unwrap();
        let p = compile_scaled(&c, &spec).unwrap();
        assert_eq!(p.elu_outputs.len(), 2);
        assert_eq!(p.epr_pairs, 1);
        // The remote halves exist in both ELUs.
        assert!(p.elu_outputs[0].program.gate_count() > 0);
        assert!(p.elu_outputs[1].program.gate_count() > 0);
    }

    #[test]
    fn epr_fidelity_multiplies_in() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(7), Qubit(8));
        let spec = ScaleSpec::new(10, 4).unwrap();
        let p = compile_scaled(&c, &spec).unwrap();
        let (noise, times) = models();
        let with_perfect = {
            let mut perfect = p.clone();
            perfect.spec = perfect.spec.with_epr(crate::EprModel {
                fidelity: 1.0,
                generation_us: 0.0,
            });
            estimate_scaled(&perfect, &noise, &times)
        };
        let with_lossy = estimate_scaled(&p, &noise, &times);
        let ratio = with_lossy.success / with_perfect.success;
        assert!((ratio - 0.95).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn shorter_chains_heat_less_per_move() {
        // The §VII motivation: same workload, modular vs monolithic.
        let circuit = qaoa_maxcut(32, 4, 3);
        let (noise, times) = models();
        // Monolithic 32-ion tape.
        let mono = Compiler::new(DeviceSpec::new(32, 8).unwrap())
            .compile(&circuit)
            .unwrap();
        let mono_s = estimate_success(&mono.program, &noise, &times);
        // Two 18-ion ELUs.
        let spec = ScaleSpec::new(18, 8).unwrap();
        let scaled = compile_scaled(&circuit, &spec).unwrap();
        // Per-move heating in each ELU is lower than on the monolithic
        // tape (k ∝ √n).
        assert!(noise.k_for_chain(18) < noise.k_for_chain(32));
        let report = estimate_scaled(&scaled, &noise, &times);
        assert!(report.success > 0.0);
        assert!(mono_s.success > 0.0);
    }

    #[test]
    fn report_totals_sum_over_elus() {
        let circuit = qaoa_maxcut(32, 2, 5);
        let spec = ScaleSpec::new(10, 4).unwrap();
        let p = compile_scaled(&circuit, &spec).unwrap();
        let (noise, times) = models();
        let r = estimate_scaled(&p, &noise, &times);
        let moves: usize = p.elu_outputs.iter().map(|o| o.report.move_count).sum();
        assert_eq!(r.total_moves, moves);
        assert_eq!(r.remote_gates, p.epr_pairs);
        // EPR generation overlaps up to COMM_SLOTS in flight: the
        // photonic term counts generation *rounds*, not pairs.
        let rounds = p.epr_pairs.div_ceil(crate::spec::COMM_SLOTS);
        let slowest = p
            .elu_outputs
            .iter()
            .map(|o| execution_time_us(&o.program, &times, &ExecTimeModel::default()))
            .fold(0.0f64, f64::max);
        assert!(
            p.epr_pairs > crate::spec::COMM_SLOTS,
            "workload must pipeline"
        );
        assert_eq!(r.exec_time_us, slowest + rounds as f64 * 1000.0);
    }

    #[test]
    fn comm_slot_reuse_resets_the_measured_ion() {
        // Three remote gates on a 2-slot comm budget: the third gate
        // rotates back onto slot 0, whose ion was measured by the first
        // — without a reset the ELU stream replays a CNOT onto a
        // measured ion. Use 4 cross-ELU gates so both slots recycle.
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.cnot(Qubit(7), Qubit(8)); // crosses the ELU cut (cap 8)
        }
        let spec = ScaleSpec::new(10, 4).unwrap();
        let p = compile_scaled(&c, &spec).unwrap();
        assert_eq!(p.epr_pairs, 4);
        // The static verifier's `scaled/measured-unreset` rule is the
        // generalization of the hand-rolled walk this test originally
        // carried: a clean compile must produce zero diagnostics.
        assert_eq!(crate::verify::verify_scaled(&p), Vec::new());
        for (e, out) in p.elu_outputs.iter().enumerate() {
            // 4 pairs over 2 slots → each slot reused once per side.
            let resets = out
                .program
                .gates()
                .filter(|(g, _)| matches!(g, Gate::Reset(_)))
                .count();
            assert_eq!(resets, 2, "ELU {e} resets each recycled slot once");
        }
        // And the rule still catches the original bug shape: drop the
        // resets from one ELU's artifacts and the verifier must object.
        let mut broken = p.clone();
        let out = &mut broken.elu_outputs[0];
        let device = *out.program.spec();
        let ops: Vec<tilt_compiler::TiltOp> = out
            .program
            .ops()
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    tilt_compiler::TiltOp::Gate {
                        gate: Gate::Reset(_),
                        ..
                    }
                )
            })
            .copied()
            .collect();
        out.program = tilt_compiler::TiltProgram::new_unchecked(device, ops);
        let width = out.routed.circuit.n_qubits();
        let routed: Vec<Gate> = out
            .routed
            .circuit
            .iter()
            .filter(|g| !matches!(g, Gate::Reset(_)))
            .copied()
            .collect();
        out.routed.circuit = Circuit::from_gates(width, routed);
        assert!(crate::verify::verify_scaled(&broken)
            .iter()
            .any(|d| d.rule == "scaled/measured-unreset"));
    }

    #[test]
    fn spec_policies_reach_the_elu_compilers() {
        // A non-default scheduler must change the per-ELU programs
        // (ROADMAP engine-coverage item: policies used to be silently
        // dropped in favour of `Compiler::new` defaults).
        let circuit = qaoa_maxcut(32, 2, 5);
        let spec = ScaleSpec::new(10, 4).unwrap();
        let default_p = compile_scaled(&circuit, &spec).unwrap();
        let naive_p = compile_scaled(
            &circuit,
            &spec.with_scheduler(tilt_compiler::SchedulerKind::NaiveNextGate),
        )
        .unwrap();
        let moves = |p: &ScaledProgram| -> usize {
            p.elu_outputs.iter().map(|o| o.report.move_count).sum()
        };
        assert_ne!(
            moves(&default_p),
            moves(&naive_p),
            "scheduler choice must alter the per-ELU schedules"
        );
    }

    #[test]
    fn invalid_policies_are_rejected_before_compiling() {
        let spec = ScaleSpec::new(10, 4)
            .unwrap()
            .with_router(tilt_compiler::RouterKind::Linq(
                tilt_compiler::route::LinqConfig::with_max_swap_len(9),
            ));
        assert!(matches!(
            spec.validate_policies(),
            Err(ScaleError::InvalidSpec { .. })
        ));
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(7));
        assert!(compile_scaled(&c, &spec).is_err());
    }

    #[test]
    fn barriers_fence_every_elu() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(1));
        c.barrier();
        c.cnot(Qubit(8), Qubit(9));
        let spec = ScaleSpec::new(10, 4).unwrap();
        let p = compile_scaled(&c, &spec).unwrap();
        assert_eq!(p.elu_outputs.len(), 2);
    }
}
