//! Property and mutation tests for the static program-invariant
//! verifier.
//!
//! Two directions, both load-bearing:
//!
//! * **Soundness of the compilers** — every random circuit, compiled on
//!   every backend, must verify clean under `VerifyLevel::Strict`. A
//!   failure here is a real compiler bug (or an over-strict rule).
//! * **Sensitivity of the rules** — seeding a deliberate corruption
//!   into a compiled artifact (swapped operand, dropped reset,
//!   lengthened swap chain, reordered schedule) must always produce a
//!   diagnostic. A silent pass here means the verifier would also miss
//!   the real bug the corruption models.

use proptest::prelude::*;
use tilt::compiler::verify::verify_tilt;
use tilt::compiler::{TiltOp, TiltProgram};
use tilt::prelude::*;
use tilt::scale::verify_scaled;

/// A random circuit over the full native-representable gate surface.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (6usize..16).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n).prop_map(|q| (0, q, q)),
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| (1, a, b)),
            (0..n).prop_map(|q| (2, q, q)),
        ];
        (Just(n), prop::collection::vec(gate, 1..36)).prop_map(|(n, specs)| {
            let mut c = Circuit::new(n);
            for (i, (kind, a, b)) in specs.into_iter().enumerate() {
                match kind {
                    0 => {
                        c.ry(Qubit(a), 0.05 + i as f64 * 0.01);
                    }
                    1 => {
                        c.cnot(Qubit(a), Qubit(b));
                    }
                    _ => {
                        c.h(Qubit(a));
                    }
                }
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend's compiler output passes its own rule pack: random
    /// circuits run clean under strict verification on TILT, QCCD, and
    /// the ELU array.
    #[test]
    fn random_circuits_verify_clean_on_every_backend(circuit in circuit_strategy()) {
        let n = circuit.n_qubits();
        let backends = [
            Backend::Tilt(DeviceSpec::new(n.max(4), (n / 2).max(2)).unwrap()),
            Backend::Qccd(QccdSpec::for_qubits(n, 5).unwrap()),
            Backend::Scaled(ScaleSpec::new(10, 4).unwrap()),
        ];
        for backend in backends {
            let engine = Engine::builder()
                .backend(backend)
                .verify(VerifyLevel::Strict)
                .build()
                .unwrap();
            let report = engine.run(&circuit);
            prop_assert!(
                report.is_ok(),
                "strict verification failed on {backend:?}: {}",
                report.unwrap_err()
            );
            prop_assert!(report.unwrap().diagnostics.is_empty());
        }
    }

    /// Swapping one gate operand out from under the head must trip the
    /// TILT pack (head-span at minimum).
    #[test]
    fn corrupted_operand_is_always_diagnosed(circuit in circuit_strategy(), pick in 0usize..1000) {
        let n = circuit.n_qubits();
        let spec = DeviceSpec::new(n.max(4), (n / 2).max(2)).unwrap();
        let out = Compiler::new(spec).compile(&circuit).unwrap();
        let cap = RouterKind::default().max_swap_span(spec);
        prop_assert!(verify_tilt(&out, cap).is_empty());

        let gates: Vec<usize> = out
            .program
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, TiltOp::Gate { .. }))
            .map(|(i, _)| i)
            .collect();
        if gates.is_empty() {
            return; // skip this case: nothing to corrupt
        }
        let idx = gates[pick % gates.len()];
        let mut ops = out.program.ops().to_vec();
        if let TiltOp::Gate { gate, .. } = &mut ops[idx] {
            // Send the first operand off the tape entirely.
            let target = gate.operands()[0];
            *gate = gate.map_qubits(|q| if q == target { Qubit(spec.n_ions() + 3) } else { q });
        }
        let mut corrupt = out.clone();
        corrupt.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&corrupt, cap);
        prop_assert!(
            diags.iter().any(|d| d.rule == "tilt/head-span"),
            "corruption at op {idx} went undiagnosed: {diags:?}"
        );
    }
}

/// Dropping the comm-ion resets from a compiled ELU array must trip the
/// measured-unreset rule — the PR 4 bug class, now a standing invariant.
#[test]
fn dropped_reset_is_always_diagnosed() {
    let mut c = Circuit::new(16);
    for _ in 0..4 {
        c.cnot(Qubit(7), Qubit(8));
    }
    let mut program = compile_scaled(&c, &ScaleSpec::new(10, 4).unwrap()).unwrap();
    assert!(verify_scaled(&program).is_empty(), "clean before mutation");

    for out in &mut program.elu_outputs {
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
    }
    let diags = verify_scaled(&program);
    assert!(
        diags.iter().any(|d| d.rule == "scaled/measured-unreset"),
        "{diags:?}"
    );
}

/// Stretching a routed swap past the router's span cap must trip the
/// swap-chain rule.
#[test]
fn lengthened_swap_chain_is_always_diagnosed() {
    let mut c = Circuit::new(12);
    c.cnot(Qubit(0), Qubit(11));
    let spec = DeviceSpec::new(12, 4).unwrap();
    let out = Compiler::new(spec).compile(&c).unwrap();
    let cap = RouterKind::default().max_swap_span(spec);
    assert!(verify_tilt(&out, cap).is_empty(), "clean before mutation");

    let mut corrupt = out.clone();
    let idx = corrupt
        .routed
        .circuit
        .iter()
        .position(|g| matches!(g, Gate::Swap(_, _)))
        .expect("a head-4 route of a span-11 CNOT inserts swaps");
    let gates = corrupt.routed.circuit.gates_mut();
    if let Gate::Swap(a, _) = gates[idx] {
        gates[idx] = Gate::Swap(a, Qubit(a.index() + cap + 1));
    }
    let diags = verify_tilt(&corrupt, cap);
    assert!(
        diags.iter().any(|d| d.rule == "tilt/swap-chain"),
        "{diags:?}"
    );
}

/// Reordering one ion's gates in the scheduled stream must trip the
/// schedule-order rule.
#[test]
fn scrambled_schedule_is_always_diagnosed() {
    let mut c = Circuit::new(8);
    for i in 0..8 {
        c.ry(Qubit(i), 0.3);
        c.rz(Qubit(i), 0.7);
    }
    let spec = DeviceSpec::new(8, 4).unwrap();
    let out = Compiler::new(spec).compile(&c).unwrap();
    let cap = RouterKind::default().max_swap_span(spec);
    assert!(verify_tilt(&out, cap).is_empty(), "clean before mutation");

    let mut ops = out.program.ops().to_vec();
    // Reorder two gates on the *same* ion — swapping gates of different
    // ions is a legal reschedule the rule rightly permits.
    let gate_idxs: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(
            |(_, op)| matches!(op, TiltOp::Gate { gate, .. } if gate.operands().contains(&Qubit(0))),
        )
        .map(|(i, _)| i)
        .collect();
    let (a, b) = (gate_idxs[0], gate_idxs[1]);
    ops.swap(a, b);
    let mut corrupt = out.clone();
    corrupt.program = TiltProgram::new_unchecked(spec, ops);
    let diags = verify_tilt(&corrupt, cap);
    assert!(
        diags.iter().any(|d| d.rule == "tilt/schedule-order"),
        "{diags:?}"
    );
}
