//! Property test: the QASM emitter and parser are inverse on the IR's
//! full gate set (f64 `Display` is shortest-round-trip, so angles survive
//! the text round trip exactly).
//!
//! The parser canonicalizes angles through
//! `clifford::normalize_angle` (wrap into `(-π, π]`, snap to the π/4
//! grid), so the identity holds on circuits whose angles are already
//! canonical — the strategy below normalizes its draws, and a separate
//! case pins that non-canonical spellings converge to the same circuit.

use proptest::prelude::*;
use tilt::circuit::{qasm, Circuit, Gate, Qubit};

fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let q = move || (0..n).prop_map(Qubit);
    let pair = move || {
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Qubit(a), Qubit(b)))
    };
    let triple = move || {
        (0..n, 0..n, 0..n)
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
            .prop_map(|(a, b, c)| (Qubit(a), Qubit(b), Qubit(c)))
    };
    let angle = || (-10.0f64..10.0).prop_map(tilt::circuit::clifford::normalize_angle);
    prop_oneof![
        q().prop_map(Gate::H),
        q().prop_map(Gate::X),
        q().prop_map(Gate::Y),
        q().prop_map(Gate::Z),
        q().prop_map(Gate::S),
        q().prop_map(Gate::Sdg),
        q().prop_map(Gate::T),
        q().prop_map(Gate::Tdg),
        q().prop_map(Gate::SqrtX),
        q().prop_map(Gate::SqrtY),
        (q(), angle()).prop_map(|(q, a)| Gate::Rx(q, a)),
        (q(), angle()).prop_map(|(q, a)| Gate::Ry(q, a)),
        (q(), angle()).prop_map(|(q, a)| Gate::Rz(q, a)),
        pair().prop_map(|(a, b)| Gate::Cnot(a, b)),
        pair().prop_map(|(a, b)| Gate::Cz(a, b)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Cphase(a, b, t)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Zz(a, b, t)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Xx(a, b, t)),
        pair().prop_map(|(a, b)| Gate::Swap(a, b)),
        triple().prop_map(|(a, b, c)| Gate::Toffoli(a, b, c)),
        q().prop_map(Gate::Measure),
        q().prop_map(Gate::Reset),
        Just(Gate::Barrier),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emit_then_parse_is_identity(
        n in 1usize..12,
        gates in prop::collection::vec((0usize..1).prop_flat_map(|_| gate_strategy(12)), 0..30),
    ) {
        // Clamp operands into range for the chosen register width.
        let gates: Vec<Gate> = gates
            .into_iter()
            .map(|g| g.map_qubits(|q| Qubit(q.index() % n)))
            .filter(|g| {
                // map_qubits can collapse distinct operands; drop those.
                let qs = g.operands();
                qs.iter().collect::<std::collections::HashSet<_>>().len() == qs.len()
            })
            .collect();
        let circuit = Circuit::from_gates(n, gates);
        let text = qasm::to_qasm(&circuit);
        let parsed = qasm::parse_qasm(&text).expect("emitter output parses");
        prop_assert_eq!(parsed, circuit);
    }

    /// Non-canonical angles converge: emitting a circuit with wrapped
    /// angles and re-parsing yields the normalized circuit, and parsing
    /// it twice is a fixed point.
    #[test]
    fn parse_normalizes_to_a_fixed_point(
        n in 1usize..8,
        raw in prop::collection::vec((-20.0f64..20.0, 0usize..8), 1..12),
    ) {
        let mut c = Circuit::new(n);
        for (angle, q) in raw {
            c.rz(Qubit(q % n), angle);
        }
        let once = qasm::parse_qasm(&qasm::to_qasm(&c)).expect("parses");
        let twice = qasm::parse_qasm(&qasm::to_qasm(&once)).expect("parses");
        prop_assert_eq!(&twice, &once);
        for (g, h) in c.gates().iter().zip(once.gates()) {
            match (g, h) {
                (Gate::Rz(_, a), Gate::Rz(_, b)) => {
                    prop_assert_eq!(tilt::circuit::clifford::normalize_angle(*a), *b);
                }
                other => panic!("unexpected gate pair {other:?}"),
            }
        }
    }
}
