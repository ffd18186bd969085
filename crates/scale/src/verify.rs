//! Static verification of ELU-array compilations.
//!
//! The scaled rule pack of the program-invariant verifier (see
//! `tilt_compiler::verify` for the rule engine and diagnostic format).
//! The `scaled/measured-unreset` rule generalizes the PR 4 regression
//! fix — a comm-slot ion that was measured for one teleportation must
//! be reset before the next remote gate replays the template onto it —
//! from a one-off test into an invariant every compilation is checked
//! against.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `scaled/measured-unreset` | no gate acts on a comm ion that was measured and not yet reset |
//! | `scaled/comm-slot-budget` | every operand fits the ELU tape (data ions below the comm block, comm traffic inside the [`COMM_SLOTS`](crate::COMM_SLOTS) block) and comm-ion measurements account for exactly two per recorded EPR pair |
//! | `tilt/*` | each ELU's LinQ output passes the full TILT tape rule pack |
//!
//! The pack is one fold, [`ScaledVerifier`]: a [`TiltVerifier`] per ELU
//! plus the `scaled/*` rules, as a [`ScaledSink`] a sharded streaming
//! compile feeds, and that [`verify_scaled`] drives over a finished
//! [`ScaledProgram`].

use crate::program::ScaledProgram;
use crate::spec::{ScaleSpec, COMM_SLOTS};
use crate::streaming::ScaledSink;
use tilt_circuit::Gate;
use tilt_compiler::verify::{Diagnostic, TiltVerifier};
use tilt_compiler::{Mapping, ProgramSink, TiltOp};

/// Runs the scaled rule pack (plus the TILT pack per ELU) over one
/// compiled ELU array.
pub fn verify_scaled(program: &ScaledProgram) -> Vec<Diagnostic> {
    let outs = &program.elu_outputs;
    let mut verifier = ScaledVerifier::new(
        &program.spec,
        outs.iter().map(|out| out.routed.initial_mapping.clone()),
    );
    for (e, out) in outs.iter().enumerate() {
        verifier.routed(e, out.routed.circuit.gates());
        verifier.emit(e, out.program.ops());
    }
    verifier.finish(
        outs.iter().map(|out| &out.routed.final_mapping),
        program.epr_pairs,
    )
}

/// The scaled rule pack as a fold over each ELU's routed gates and
/// scheduled ops, delivered as to a [`TiltVerifier`].
///
/// Findings come out per ELU — the comm-slot findings, then
/// `scaled/measured-unreset`, then that ELU's TILT findings prefixed
/// `elu N:` — and the EPR ledger last.
#[derive(Debug)]
pub struct ScaledVerifier {
    capacity: usize,
    elus: Vec<EluVerifier>,
}

/// One ELU's share of a [`ScaledVerifier`].
#[derive(Debug)]
struct EluVerifier {
    tilt: TiltVerifier,
    /// `scaled/comm-slot-budget` indexes gates, not moves.
    gates_seen: usize,
    routed_seen: usize,
    /// Ions measured and not yet reset.
    measured: Vec<bool>,
    /// Measurements of comm ions, in logical coordinates.
    comm_measures: usize,
    comm_slot: Vec<Diagnostic>,
    unreset: Vec<Diagnostic>,
}

impl ScaledVerifier {
    /// A verifier for an array on `spec` whose ELUs start from
    /// `initial_mappings`, in ELU order.
    pub fn new(spec: &ScaleSpec, initial_mappings: impl IntoIterator<Item = Mapping>) -> Self {
        let device = spec
            .elu_device()
            .expect("a ScaleSpec always describes a valid ELU device");
        // Each ELU's artifacts must pass the tape rules against the
        // spec's own router cap.
        let cap = spec.router.max_swap_span(device);
        ScaledVerifier {
            capacity: spec.data_capacity(),
            elus: initial_mappings
                .into_iter()
                .map(|initial| EluVerifier {
                    tilt: TiltVerifier::new(device, cap, initial),
                    gates_seen: 0,
                    routed_seen: 0,
                    measured: vec![false; spec.ions_per_elu()],
                    comm_measures: 0,
                    comm_slot: Vec::new(),
                    unreset: Vec::new(),
                })
                .collect(),
        }
    }

    /// Ends every ELU's streams: checks each against its compile's
    /// final mapping and the comm-ion measurements against the
    /// `epr_pairs` recorded, and reports every finding.
    pub fn finish<'a>(
        self,
        final_mappings: impl IntoIterator<Item = &'a Mapping>,
        epr_pairs: usize,
    ) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut comm_measures = 0usize;
        for (e, (elu, final_mapping)) in self.elus.into_iter().zip(final_mappings).enumerate() {
            comm_measures += elu.comm_measures;
            diags.extend(elu.comm_slot);
            diags.extend(elu.unreset);
            for mut d in elu.tilt.finish(final_mapping) {
                d.message = format!("elu {e}: {}", d.message);
                diags.push(d);
            }
        }
        // Gate teleportation measures one comm ion in each endpoint ELU,
        // so the comm-ion measurement count pins down the EPR ledger.
        if comm_measures != 2 * epr_pairs {
            diags.push(Diagnostic::error(
                "scaled/comm-slot-budget",
                0,
                format!(
                    "{comm_measures} comm-ion measurements across the array, but {epr_pairs} EPR \
                     pairs were recorded (expected {})",
                    2 * epr_pairs
                ),
            ));
        }
        diags
    }
}

impl ScaledSink for ScaledVerifier {
    /// `scaled/comm-slot-budget`: every scheduled operand must fit the
    /// ELU tape.
    fn emit(&mut self, e: usize, ops: &[TiltOp]) {
        let capacity = self.capacity;
        let elu = &mut self.elus[e];
        for op in ops {
            let TiltOp::Gate { gate: g, .. } = op else {
                continue;
            };
            let i = elu.gates_seen;
            elu.gates_seen += 1;
            for q in g.operands() {
                if q.index() >= capacity + COMM_SLOTS {
                    elu.comm_slot.push(Diagnostic::error(
                        "scaled/comm-slot-budget",
                        i,
                        format!(
                            "elu {e}: {g} touches position {}, past the {capacity} data + \
                             {COMM_SLOTS} comm ions",
                            q.index()
                        ),
                    ));
                }
            }
        }
        elu.tilt.emit(ops);
    }

    /// `scaled/measured-unreset`, checked on the *routed* circuit: the
    /// scheduled stream decomposes swaps into native gates, which hides
    /// where the collapsed state travels. Only comm ions are tainted by
    /// a measurement: a data qubit measured mid-circuit may be reused,
    /// as on the tape. Also counts comm-ion measurements for the EPR
    /// ledger.
    fn routed(&mut self, e: usize, gates: &[Gate]) {
        let capacity = self.capacity;
        let elu = &mut self.elus[e];
        let ions = elu.measured.len();
        for g in gates {
            let i = elu.routed_seen;
            elu.routed_seen += 1;
            match g {
                // Comm ions are told apart in *logical* coordinates:
                // routing may swap a comm ion away from its home
                // position, so the physical measure target says nothing.
                // The TILT fold replays the routed swaps.
                Gate::Measure(q) if q.index() < ions => {
                    let comm = elu.tilt.mapping().logical_at(q.index()).index() >= capacity;
                    elu.measured[q.index()] = comm;
                    elu.comm_measures += usize::from(comm);
                }
                Gate::Reset(q) if q.index() < ions => {
                    elu.measured[q.index()] = false;
                }
                // A SWAP is unitary even on a collapsed ion: it relocates
                // the dirty state rather than computing on it, so the
                // taint travels with it.
                Gate::Swap(a, b) if a.index() < ions && b.index() < ions => {
                    elu.measured.swap(a.index(), b.index());
                }
                Gate::Barrier => {}
                g => {
                    for q in g.operands() {
                        if q.index() < ions && elu.measured[q.index()] {
                            elu.unreset.push(Diagnostic::error(
                                "scaled/measured-unreset",
                                i,
                                format!(
                                    "elu {e}: {g} acts on position {} after it was measured \
                                     and before any reset",
                                    q.index()
                                ),
                            ));
                        }
                    }
                }
            }
            elu.tilt.routed(std::slice::from_ref(g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile_scaled;
    use crate::spec::ScaleSpec;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::TiltProgram;

    fn remote_heavy() -> ScaledProgram {
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.cnot(Qubit(7), Qubit(8));
        }
        compile_scaled(&c, &ScaleSpec::new(10, 4).unwrap()).unwrap()
    }

    #[test]
    fn clean_compile_verifies_clean() {
        assert_eq!(verify_scaled(&remote_heavy()), Vec::new());
        // A data qubit measured mid-circuit and computed on again needs
        // no reset: only comm ions are tainted by a measurement.
        let mut c = Circuit::new(8);
        c.h(Qubit(0)).measure(Qubit(0)).h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        let p = compile_scaled(&c, &ScaleSpec::new(10, 4).unwrap()).unwrap();
        assert_eq!(verify_scaled(&p), Vec::new());
    }

    #[test]
    fn dropped_reset_is_diagnosed() {
        let mut p = remote_heavy();
        // Strip every reset from ELU 0's artifacts: the slot-0 comm ion
        // is then reused while still measured — the exact PR 4 bug
        // shape.
        let out = &mut p.elu_outputs[0];
        let spec = *out.program.spec();
        let ops: Vec<TiltOp> = out
            .program
            .ops()
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    TiltOp::Gate {
                        gate: Gate::Reset(_),
                        ..
                    }
                )
            })
            .copied()
            .collect();
        out.program = TiltProgram::new_unchecked(spec, ops);
        let width = out.routed.circuit.n_qubits();
        let gates: Vec<Gate> = out
            .routed
            .circuit
            .iter()
            .filter(|g| !matches!(g, Gate::Reset(_)))
            .copied()
            .collect();
        out.routed.circuit = Circuit::from_gates(width, gates);
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/measured-unreset"),
            "{diags:?}"
        );
    }

    #[test]
    fn epr_ledger_mismatch_is_diagnosed() {
        let mut p = remote_heavy();
        p.epr_pairs += 1;
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/comm-slot-budget"),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_tape_operand_is_diagnosed() {
        let mut p = remote_heavy();
        let out = &mut p.elu_outputs[0];
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        ops.push(TiltOp::Gate {
            gate: Gate::Rx(Qubit(spec.n_ions()), 0.5),
            head_pos: spec.n_ions() - spec.head_size(),
        });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/comm-slot-budget"),
            "{diags:?}"
        );
    }
}
