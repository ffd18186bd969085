//! Semantic verification of the compiler against the state-vector
//! simulator: the native decomposition and the routed physical circuit
//! must implement the *same unitary* as the logical program (up to global
//! phase, and up to the final tape permutation for routed circuits).
//!
//! This is the strongest correctness statement in the test suite: the
//! architectural metrics mean nothing if the compiled program computes
//! something else.

use proptest::prelude::*;
use tilt::circuit::{cphase_network, toffoli_network, Circuit, Gate, Qubit};
use tilt::compiler::decompose::decompose;
use tilt::prelude::*;
use tilt_statevec::State;

const EPS: f64 = 1e-9;

/// Fidelity of two circuits' action on shared random probe states.
fn circuits_equivalent(n: usize, c1: &Circuit, c2: &Circuit) -> bool {
    (0..3u64).all(|seed| {
        let probe = State::random(n, seed);
        let f = probe.clone().run(c1).fidelity(&probe.run(c2));
        (f - 1.0).abs() < EPS
    })
}

#[test]
fn paper_cnot_recipe_is_exact() {
    let mut cnot = Circuit::new(2);
    cnot.cnot(Qubit(0), Qubit(1));
    assert!(circuits_equivalent(2, &cnot, &decompose(&cnot)));
}

#[test]
fn routed_circuit_equals_logical_up_to_final_permutation() {
    // Compile a genuinely swap-needing circuit on a tiny device, simulate
    // both the logical circuit and the routed physical circuit, and undo
    // the routing permutation on the physical result.
    let mut logical = Circuit::new(6);
    logical.h(Qubit(0));
    logical.cnot(Qubit(0), Qubit(5));
    logical.cphase(Qubit(5), Qubit(1), 0.9);
    logical.cnot(Qubit(2), Qubit(4));
    logical.h(Qubit(3));

    let spec = DeviceSpec::new(6, 3).unwrap();
    let out = Compiler::new(spec).compile(&logical).unwrap();
    assert!(out.report.swap_count > 0, "test needs real routing");

    let logical_state = State::zero(6).run(&decompose(&logical));
    let physical_state = State::zero(6).run(&decompose(&out.routed.circuit));
    // Logical qubit q ended at tape position log_to_phys[q]; relabel the
    // logical state into physical coordinates and compare.
    let perm: Vec<usize> = out.routed.final_mapping.log_to_phys().to_vec();
    let expected = logical_state.permute_qubits(&perm);
    let f = expected.fidelity(&physical_state);
    assert!((f - 1.0).abs() < EPS, "fidelity {f}");
}

#[test]
fn scheduled_program_equals_logical_up_to_final_permutation() {
    // Strongest end-to-end check: replay the *scheduled* op stream (the
    // machine-level program, moves ignored as they are identity on data)
    // and compare with the logical circuit.
    let mut logical = Circuit::new(6);
    logical.h(Qubit(1));
    logical.cnot(Qubit(1), Qubit(4));
    logical.zz(Qubit(0), Qubit(5), 0.4);
    logical.cnot(Qubit(3), Qubit(2));

    let spec = DeviceSpec::new(6, 3).unwrap();
    let out = Compiler::new(spec).compile(&logical).unwrap();

    let mut physical_state = State::zero(6);
    for (gate, _pos) in out.program.gates() {
        physical_state.apply(gate);
    }
    let logical_state = State::zero(6).run(&decompose(&logical));
    let perm: Vec<usize> = out.routed.final_mapping.log_to_phys().to_vec();
    let f = logical_state
        .permute_qubits(&perm)
        .fidelity(&physical_state);
    assert!((f - 1.0).abs() < EPS, "fidelity {f}");
}

#[test]
fn exact_router_output_is_also_semantically_correct() {
    let mut logical = Circuit::new(6);
    logical.cnot(Qubit(0), Qubit(5));
    logical.cnot(Qubit(4), Qubit(1));
    let spec = DeviceSpec::new(6, 3).unwrap();
    let native = decompose(&logical);
    let initial = tilt::compiler::Mapping::identity(6);
    let routed = tilt::compiler::route::exact::optimal_route(
        &native,
        spec,
        &initial,
        &tilt::compiler::route::ExactConfig::default(),
    )
    .unwrap();

    let logical_state = State::zero(6).run(&native);
    let physical_state = State::zero(6).run(&decompose(&routed.circuit));
    let perm: Vec<usize> = routed.final_mapping.log_to_phys().to_vec();
    let f = logical_state
        .permute_qubits(&perm)
        .fidelity(&physical_state);
    assert!((f - 1.0).abs() < EPS, "fidelity {f}");
}

/// Random-program strategy at two-qubit granularity.
fn random_program() -> impl Strategy<Value = Circuit> {
    (4usize..8).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n).prop_map(|q| Gate::H(Qubit(q))),
            (0..n, -3.0f64..3.0).prop_map(|(q, a)| Gate::Rz(Qubit(q), a)),
            (0..n, 0..n, -3.0f64..3.0)
                .prop_filter("distinct", |(a, b, _)| a != b)
                .prop_map(|(a, b, t)| Gate::Zz(Qubit(a), Qubit(b), t)),
            (0..n, 0..n)
                .prop_filter("distinct", |(a, b)| a != b)
                .prop_map(|(a, b)| Gate::Cnot(Qubit(a), Qubit(b))),
        ];
        prop::collection::vec(gate, 1..14).prop_map(move |gates| Circuit::from_gates(n, gates))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decomposition preserves semantics on random programs.
    #[test]
    fn decomposition_preserves_unitary(circuit in random_program()) {
        let native = decompose(&circuit);
        prop_assert!(native.is_native());
        let n = circuit.n_qubits();
        for seed in 0..2u64 {
            let probe = State::random(n, seed);
            let f = probe.clone().run(&circuit).fidelity(&probe.run(&native));
            prop_assert!((f - 1.0).abs() < EPS, "fidelity {f}");
        }
    }

    /// The full pipeline preserves semantics up to the final permutation
    /// on random programs routed through a head-constrained device.
    #[test]
    fn pipeline_preserves_unitary(circuit in random_program()) {
        let n = circuit.n_qubits();
        let head = (n / 2).max(2);
        let spec = DeviceSpec::new(n, head).unwrap();
        let out = Compiler::new(spec).compile(&circuit).unwrap();

        let logical_state = State::zero(n).run(&decompose(&circuit));
        let mut physical_state = State::zero(n);
        for (gate, _) in out.program.gates() {
            physical_state.apply(gate);
        }
        let perm: Vec<usize> = out.routed.final_mapping.log_to_phys().to_vec();
        let f = logical_state.permute_qubits(&perm).fidelity(&physical_state);
        prop_assert!((f - 1.0).abs() < EPS, "fidelity {f}");
    }
}

/// The arm after `g`, on the operands `a`, `b`, `c` and angle `t`:
/// walking it from `H` visits every [`Gate`] arm once. The match has no
/// wildcard, so a new arm fails to compile here until it joins the walk.
fn next_arm(g: Gate, [a, b, c]: [Qubit; 3], t: f64) -> Option<Gate> {
    use Gate::*;
    Some(match g {
        H(_) => X(a),
        X(_) => Y(a),
        Y(_) => Z(a),
        Z(_) => S(a),
        S(_) => Sdg(a),
        Sdg(_) => T(a),
        T(_) => Tdg(a),
        Tdg(_) => SqrtX(a),
        SqrtX(_) => SqrtY(a),
        SqrtY(_) => Rx(a, t),
        Rx(..) => Ry(a, t),
        Ry(..) => Rz(a, t),
        Rz(..) => Cnot(a, b),
        Cnot(..) => Cz(a, b),
        Cz(..) => Cphase(a, b, t),
        Cphase(..) => Zz(a, b, t),
        Zz(..) => Xx(a, b, t),
        Xx(..) => Swap(a, b),
        Swap(..) => Toffoli(a, b, c),
        Toffoli(..) => Measure(a),
        Measure(_) => Reset(a),
        Reset(_) => Barrier,
        Barrier => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every gate arm, on random distinct operands in random order and at
    /// a random angle, lowers to native gates implementing the same
    /// unitary; the non-unitary arms pass through unchanged. A lone
    /// Toffoli or CPhase lowers exactly as its CNOT-level network does.
    #[test]
    fn every_program_gate_decomposes_exactly(
        (a, b, c) in (0usize..4, 0usize..4, 0usize..4)
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c),
        t in -6.3f64..6.3,
    ) {
        const N: usize = 4;
        let qs = [Qubit(a), Qubit(b), Qubit(c)];
        let [qa, qb, qc] = qs;
        let arms: Vec<Gate> =
            std::iter::successors(Some(Gate::H(qa)), |&g| next_arm(g, qs, t)).collect();
        prop_assert_eq!(arms.len(), 23);
        for g in arms {
            let program = Circuit::from_gates(N, [g]);
            let native = decompose(&program);
            prop_assert!(native.is_native(), "{g:?}");
            if matches!(g, Gate::Measure(_) | Gate::Reset(_) | Gate::Barrier) {
                prop_assert_eq!(native, program);
            } else {
                prop_assert!(
                    circuits_equivalent(N, &program, &native),
                    "decomposition of {g:?} is not unitarily equivalent"
                );
            }
        }
        let lowered = |gates: &[Gate]| decompose(&Circuit::from_gates(N, gates.iter().copied()));
        prop_assert_eq!(
            lowered(&[Gate::Toffoli(qa, qb, qc)]),
            lowered(&toffoli_network(qa, qb, qc))
        );
        prop_assert_eq!(
            lowered(&[Gate::Cphase(qa, qb, t)]),
            lowered(&cphase_network(qa, qb, t))
        );
    }
}
