//! End-to-end integration tests: every paper benchmark through the full
//! LinQ pipeline at both paper head sizes, checking the structural
//! invariants the simulator relies on.

use tilt::prelude::*;
use tilt::sim;

/// Compile a benchmark on a device sized like the paper's (tape as wide
/// as the register, given head size).
fn compile(circuit: &Circuit, head: usize) -> CompileOutput {
    let spec = DeviceSpec::new(circuit.n_qubits(), head).expect("valid spec");
    Compiler::new(spec).compile(circuit).expect("compiles")
}

#[test]
fn all_benchmarks_compile_at_both_paper_head_sizes() {
    for b in paper_suite() {
        for head in [16, 32] {
            let out = compile(&b.circuit, head);
            assert!(
                out.program.gate_count() > 0,
                "{} head {head} produced an empty program",
                b.name
            );
        }
    }
}

#[test]
fn every_scheduled_gate_fits_under_its_head_position() {
    for b in paper_suite() {
        let out = compile(&b.circuit, 16);
        let spec = *out.program.spec();
        for (gate, pos) in out.program.gates() {
            for q in gate.operands() {
                assert!(
                    spec.covers(pos, q.index()),
                    "{}: {gate:?} at head {pos} leaves {q} uncovered",
                    b.name
                );
            }
        }
    }
}

#[test]
fn scheduled_two_qubit_count_is_native_plus_swap_overhead() {
    for b in paper_suite() {
        let native = tilt::compiler::decompose::decompose(&b.circuit);
        let out = compile(&b.circuit, 16);
        assert_eq!(
            out.program.two_qubit_gate_count(),
            native.two_qubit_count() + 3 * out.report.swap_count,
            "{}",
            b.name
        );
    }
}

#[test]
fn routed_circuit_replays_to_the_original_logical_program() {
    // Replaying the inserted swaps over the initial mapping must recover
    // exactly the original logical two-qubit interaction sequence.
    for b in paper_suite() {
        let native = tilt::compiler::decompose::decompose(&b.circuit);
        let logical: Vec<(Qubit, Qubit)> = native
            .iter()
            .filter(|g| g.is_two_qubit())
            .map(|g| {
                let q = g.operands();
                (q[0].min(q[1]), q[0].max(q[1]))
            })
            .collect();

        let out = compile(&b.circuit, 16);
        let mut mapping = out.routed.initial_mapping.clone();
        let mut replayed = Vec::with_capacity(logical.len());
        for g in &out.routed.circuit {
            match g {
                Gate::Swap(a, b) => mapping.swap_positions(a.index(), b.index()),
                g if g.is_two_qubit() => {
                    let q = g.operands();
                    let la = mapping.logical_at(q[0].index());
                    let lb = mapping.logical_at(q[1].index());
                    replayed.push((la.min(lb), la.max(lb)));
                }
                _ => {}
            }
        }
        assert_eq!(replayed, logical, "{}", b.name);
    }
}

#[test]
fn bigger_head_never_needs_more_swaps() {
    for b in paper_suite() {
        let swaps16 = compile(&b.circuit, 16).report.swap_count;
        let swaps32 = compile(&b.circuit, 32).report.swap_count;
        assert!(
            swaps32 <= swaps16,
            "{}: head 32 used {swaps32} swaps vs {swaps16} at head 16",
            b.name
        );
    }
}

#[test]
fn short_distance_benchmarks_need_no_swaps() {
    for b in paper_suite() {
        if !b.needs_swaps(16) {
            let out = compile(&b.circuit, 16);
            assert_eq!(out.report.swap_count, 0, "{}", b.name);
        }
    }
}

#[test]
fn success_rates_are_valid_probabilities_and_ordered_by_architecture() {
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();
    for b in paper_suite() {
        let ideal = estimate_ideal_success(&b.circuit, &noise, &times);
        assert!(ideal.success > 0.0 && ideal.success <= 1.0, "{}", b.name);
        for head in [16, 32] {
            let out = compile(&b.circuit, head);
            let s = estimate_success(&out.program, &noise, &times);
            assert!(
                s.success >= 0.0 && s.success <= 1.0,
                "{} head {head}: {}",
                b.name,
                s.success
            );
            assert!(
                s.success <= ideal.success * (1.0 + 1e-9),
                "{} head {head} beat the ideal device",
                b.name
            );
        }
    }
}

#[test]
fn execution_times_are_finite_and_positive() {
    let times = GateTimeModel::default();
    let exec = ExecTimeModel::default();
    for b in paper_suite() {
        for head in [16, 32] {
            let out = compile(&b.circuit, head);
            let t = sim::execution_time_us(&out.program, &times, &exec);
            assert!(t.is_finite() && t > 0.0, "{} head {head}: {t}", b.name);
        }
    }
}

#[test]
fn baseline_router_also_routes_every_benchmark() {
    for b in tilt::benchmarks::suite::long_distance_suite() {
        let spec = DeviceSpec::new(b.circuit.n_qubits(), 16).unwrap();
        let mut compiler = Compiler::new(spec);
        compiler.router(RouterKind::Stochastic(Default::default()));
        let out = compiler.compile(&b.circuit).expect("baseline compiles");
        for (gate, _) in out.program.gates() {
            if let Some(d) = gate.span() {
                assert!(d < 16, "{}: unrouted gate span {d}", b.name);
            }
        }
    }
}

#[test]
fn linq_beats_baseline_on_swaps_for_long_distance_benchmarks() {
    // The Fig. 6b claim, as an invariant on the real workloads.
    for b in tilt::benchmarks::suite::long_distance_suite() {
        let spec = DeviceSpec::new(b.circuit.n_qubits(), 16).unwrap();
        let linq = Compiler::new(spec).compile(&b.circuit).unwrap();
        let mut baseline_compiler = Compiler::new(spec);
        baseline_compiler.router(RouterKind::Stochastic(Default::default()));
        let baseline = baseline_compiler.compile(&b.circuit).unwrap();
        assert!(
            linq.report.swap_count <= baseline.report.swap_count,
            "{}: LinQ {} vs baseline {}",
            b.name,
            linq.report.swap_count,
            baseline.report.swap_count
        );
    }
}
