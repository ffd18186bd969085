//! Property-based tests on the router and scheduler: for arbitrary
//! circuits and device shapes, routing must preserve program semantics
//! and scheduling must respect coverage and dependencies.

use proptest::prelude::*;
use tilt::prelude::*;

/// A random native-granularity circuit description: qubit count plus a
/// list of abstract gate specs.
#[derive(Clone, Debug)]
enum GateSpec {
    One(usize),
    Two(usize, usize),
}

fn circuit_strategy() -> impl Strategy<Value = (usize, Vec<GateSpec>)> {
    (4usize..14).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n).prop_map(GateSpec::One),
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| GateSpec::Two(a, b)),
        ];
        (Just(n), prop::collection::vec(gate, 0..40))
    })
}

fn build(n: usize, specs: &[GateSpec]) -> Circuit {
    let mut c = Circuit::new(n);
    for (i, s) in specs.iter().enumerate() {
        match *s {
            GateSpec::One(q) => {
                c.rx(Qubit(q), 0.1 + i as f64 * 0.01);
            }
            GateSpec::Two(a, b) => {
                c.xx(Qubit(a), Qubit(b), 0.1 + i as f64 * 0.01);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both routers leave every two-qubit gate executable under the head.
    #[test]
    fn routed_gates_always_fit((n, specs) in circuit_strategy(), head_frac in 2usize..6) {
        let head = (n / 2).max(2).min(head_frac + 2);
        let circuit = build(n, &specs);
        let spec = DeviceSpec::new(n, head).unwrap();
        for router in [
            RouterKind::default(),
            RouterKind::Stochastic(Default::default()),
        ] {
            let mut compiler = Compiler::new(spec);
            compiler.router(router);
            let out = compiler.compile(&circuit).unwrap();
            for g in &out.routed.circuit {
                if let Some(d) = g.span() {
                    prop_assert!(d < head, "span {d} >= head {head}");
                }
            }
        }
    }

    /// Replaying the routed circuit's swaps recovers the logical program:
    /// same two-qubit interactions, same order, same angles.
    #[test]
    fn routing_preserves_program_semantics((n, specs) in circuit_strategy()) {
        let circuit = build(n, &specs);
        let head = (n / 2).max(2);
        let spec = DeviceSpec::new(n, head).unwrap();
        let out = Compiler::new(spec).compile(&circuit).unwrap();

        let mut mapping = out.routed.initial_mapping.clone();
        let mut replayed: Vec<(Qubit, Qubit, u64)> = Vec::new();
        for g in &out.routed.circuit {
            match *g {
                Gate::Swap(a, b) => mapping.swap_positions(a.index(), b.index()),
                Gate::Xx(a, b, t) => {
                    let la = mapping.logical_at(a.index());
                    let lb = mapping.logical_at(b.index());
                    replayed.push((la.min(lb), la.max(lb), t.to_bits()));
                }
                _ => {}
            }
        }
        let expected: Vec<(Qubit, Qubit, u64)> = circuit
            .iter()
            .filter_map(|g| match *g {
                Gate::Xx(a, b, t) => Some((a.min(b), a.max(b), t.to_bits())),
                _ => None,
            })
            .collect();
        prop_assert_eq!(replayed, expected);
        prop_assert_eq!(&mapping, &out.routed.final_mapping);
    }

    /// The scheduler emits every native gate exactly once and covers every
    /// operand with the head.
    #[test]
    fn scheduler_covers_everything((n, specs) in circuit_strategy(), use_naive in any::<bool>()) {
        let circuit = build(n, &specs);
        let head = (n / 2).max(2);
        let spec = DeviceSpec::new(n, head).unwrap();
        let mut compiler = Compiler::new(spec);
        if use_naive {
            compiler.scheduler(SchedulerKind::NaiveNextGate);
        }
        let out = compiler.compile(&circuit).unwrap();
        let lowered = tilt::compiler::decompose::decompose(&out.routed.circuit);
        prop_assert_eq!(out.program.gate_count(), lowered.len());
        for (gate, pos) in out.program.gates() {
            for q in gate.operands() {
                prop_assert!(spec.covers(pos, q.index()));
            }
        }
    }

    /// Per-qubit gate order in the scheduled program matches the routed
    /// circuit (dependencies are never reordered).
    #[test]
    fn scheduler_respects_per_qubit_order((n, specs) in circuit_strategy()) {
        let circuit = build(n, &specs);
        let head = (n / 2).max(2);
        let spec = DeviceSpec::new(n, head).unwrap();
        let out = Compiler::new(spec).compile(&circuit).unwrap();
        let lowered = tilt::compiler::decompose::decompose(&out.routed.circuit);

        // Expected per-qubit sequences from program order.
        let mut expected: Vec<Vec<Gate>> = vec![Vec::new(); n];
        for g in &lowered {
            for q in g.operands() {
                expected[q.index()].push(*g);
            }
        }
        let mut actual: Vec<Vec<Gate>> = vec![Vec::new(); n];
        for (g, _) in out.program.gates() {
            for q in g.operands() {
                actual[q.index()].push(*g);
            }
        }
        prop_assert_eq!(expected, actual);
    }

    /// Swap count monotonicity: an all-covering head needs zero swaps.
    #[test]
    fn full_head_needs_no_swaps((n, specs) in circuit_strategy()) {
        let circuit = build(n, &specs);
        let spec = DeviceSpec::new(n, n).unwrap();
        let out = Compiler::new(spec).compile(&circuit).unwrap();
        prop_assert_eq!(out.report.swap_count, 0);
        prop_assert_eq!(out.report.move_count, 0);
    }
}
