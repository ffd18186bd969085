//! Acceptance tests for the `Engine` session API: the unified front
//! door must be *decision-identical* to the legacy per-pass flows it
//! wraps — same program bytes, same success numbers, same timings —
//! and the batch path must match per-circuit runs exactly.
//!
//! The session engines here run with [`VerifyLevel::Strict`], so every
//! equivalence circuit doubles as a verifier fixture: a run that
//! matches the legacy bytes *and* completes strictly proves both that
//! compilation is unchanged and that its artifacts satisfy the
//! backend's invariant rule pack.

use tilt::benchmarks::bv::bernstein_vazirani;
use tilt::benchmarks::qaoa::qaoa_maxcut;
use tilt::compiler::InitialMapping;
use tilt::engine::{Backend, Engine, RunDetail};
use tilt::prelude::*;
use tilt::sim::ExecTimeModel;

/// `Engine::run` on BV-16 produces a byte-identical `TiltProgram` and
/// numerically identical success/exec-time to the legacy
/// `Compiler::compile` + `estimate_success` + `execution_time_us` path.
#[test]
fn engine_matches_legacy_tilt_path_on_bv16() {
    let circuit = bernstein_vazirani(16, &[true; 15]);
    let spec = DeviceSpec::new(16, 8).unwrap();
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();

    // Legacy three-call flow.
    let legacy = Compiler::new(spec).compile(&circuit).unwrap();
    let legacy_success = estimate_success(&legacy.program, &noise, &times);
    let legacy_time = execution_time_us(&legacy.program, &times, &ExecTimeModel::default());

    // Session flow, with the static verifier on.
    let report = Engine::builder()
        .backend(Backend::Tilt(spec))
        .verify(VerifyLevel::Strict)
        .build()
        .unwrap()
        .run(&circuit)
        .unwrap();
    assert!(report.diagnostics.is_empty());

    assert_eq!(
        report.tilt_program().unwrap(),
        &legacy.program,
        "engine must emit the identical op stream"
    );
    assert_eq!(report.ln_success, legacy_success.ln_success);
    assert_eq!(report.success, legacy_success.success);
    assert_eq!(report.exec_time_us, legacy_time);
    assert_eq!(report.compile.swap_count, legacy.report.swap_count);
    assert_eq!(
        report.compile.opposing_swap_count,
        legacy.report.opposing_swap_count
    );
    assert_eq!(report.compile.move_count, legacy.report.move_count);
    assert_eq!(
        report.compile.move_distance,
        legacy.report.move_distance_ions
    );
    assert_eq!(
        report.compile.native_gate_count,
        legacy.report.native_gate_count
    );
}

/// The same equivalence holds with non-default policies threaded
/// through the builder.
#[test]
fn engine_matches_legacy_with_custom_policies() {
    use tilt::compiler::route::LinqConfig;
    let circuit = qaoa_maxcut(24, 2, 5);
    let spec = DeviceSpec::new(24, 6).unwrap();
    let router = RouterKind::Linq(LinqConfig::with_max_swap_len(4));

    let mut compiler = Compiler::new(spec);
    compiler
        .router(router)
        .scheduler(SchedulerKind::NaiveNextGate);
    let legacy = compiler.compile(&circuit).unwrap();

    let report = Engine::builder()
        .backend(Backend::Tilt(spec))
        .router(router)
        .scheduler(SchedulerKind::NaiveNextGate)
        .verify(VerifyLevel::Strict)
        .build()
        .unwrap()
        .run(&circuit)
        .unwrap();
    assert_eq!(report.tilt_program().unwrap(), &legacy.program);
}

/// The QCCD backend reproduces the legacy `decompose` + `compile_qccd`
/// + `estimate_qccd_success` flow exactly.
#[test]
fn engine_matches_legacy_qccd_path() {
    let circuit = qaoa_maxcut(32, 4, 1);
    let spec = QccdSpec::for_qubits(32, 17).unwrap();

    let native = tilt::compiler::decompose::decompose(&circuit);
    let program = compile_qccd(&native, &spec).unwrap();
    let legacy = estimate_qccd_success(
        &program,
        &NoiseModel::default(),
        &GateTimeModel::default(),
        &QccdParams::default(),
    );

    let report = Engine::builder()
        .backend(Backend::Qccd(spec))
        .verify(VerifyLevel::Strict)
        .build()
        .unwrap()
        .run(&circuit)
        .unwrap();
    let q = report.qccd_report().unwrap();
    assert_eq!(q, &legacy);
    assert_eq!(report.ln_success, legacy.ln_success);
    assert_eq!(report.exec_time_us, legacy.exec_time_us);
    assert_eq!(report.compile.move_count, legacy.transports);
    assert_eq!(report.compile.move_distance, legacy.shuttle_segments);
}

/// The scaled backend reproduces the legacy `compile_scaled` +
/// `estimate_scaled` flow exactly, also under the whole-circuit
/// `InteractionChain` placement, which an in-memory run must keep
/// accepting.
#[test]
fn engine_matches_legacy_scaled_path() {
    let circuit = qaoa_maxcut(32, 2, 1);
    let base = ScaleSpec::new(18, 8).unwrap();
    for spec in [
        base,
        base.with_initial_mapping(InitialMapping::InteractionChain),
    ] {
        let program = compile_scaled(&circuit, &spec).unwrap();
        let legacy = estimate_scaled(&program, &NoiseModel::default(), &GateTimeModel::default());

        let report = Engine::builder()
            .backend(Backend::Scaled(spec))
            .verify(VerifyLevel::Strict)
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        let s = report.scale_report().unwrap();
        assert_eq!(s, &legacy, "{:?}", spec.initial_mapping);
        assert_eq!(report.compile.epr_pairs, program.epr_pairs);
        assert_eq!(report.compile.swap_count, legacy.total_swaps);
        assert_eq!(report.compile.move_count, legacy.total_moves);
        let RunDetail::Scaled { program: ran, .. } = &report.detail else {
            unreachable!("scaled backend");
        };
        for (e, (ran, legacy)) in ran.elu_outputs.iter().zip(&program.elu_outputs).enumerate() {
            assert_eq!(ran.program, legacy.program, "ELU {e}");
            assert_eq!(ran.routed.initial_mapping, legacy.routed.initial_mapping);
        }
    }
}

/// A mixed bag of generated circuits for the batch acceptance check.
fn generated_circuits(count: usize) -> Vec<Circuit> {
    (0..count)
        .map(|k| match k % 4 {
            0 => {
                let mut c = Circuit::new(16);
                c.h(Qubit(0));
                for i in 1..16 {
                    c.cnot(Qubit(i - 1), Qubit(i));
                }
                c
            }
            1 => bernstein_vazirani(12, &[true; 11]),
            2 => qaoa_maxcut(16, 1, k as u64),
            _ => {
                let mut c = Circuit::new(14);
                for i in 0..7 {
                    c.cnot(Qubit(i), Qubit(13 - i));
                }
                c
            }
        })
        .collect()
}

/// `run_batch` over ≥100 generated circuits matches per-circuit `run`
/// results exactly, in submission order.
#[test]
fn batch_over_100_circuits_matches_per_circuit_runs() {
    // Strict verification across the whole generated corpus: 104
    // compilations' artifacts all pass the TILT rule pack.
    let engine = Engine::builder()
        .backend(Backend::Tilt(DeviceSpec::new(16, 4).unwrap()))
        .verify(VerifyLevel::Strict)
        .build()
        .unwrap();
    let circuits = generated_circuits(104);
    let batch = engine.run_batch(circuits.clone());
    assert_eq!(batch.len(), circuits.len());
    for (i, (circuit, batched)) in circuits.iter().zip(&batch).enumerate() {
        let single = engine.run(circuit).unwrap();
        let batched = batched.as_ref().unwrap();
        assert_eq!(
            single.tilt_program().unwrap(),
            batched.tilt_program().unwrap(),
            "circuit {i}: batch program must be byte-identical to a single run"
        );
        assert_eq!(single.ln_success, batched.ln_success, "circuit {i}");
        assert_eq!(single.exec_time_us, batched.exec_time_us, "circuit {i}");
        assert_eq!(
            single.compile.swap_count, batched.compile.swap_count,
            "circuit {i}"
        );
    }
}

/// Streaming delivers the same reports as the collecting variant, in
/// submission order.
#[test]
fn streaming_batch_matches_collected_batch() {
    let engine = Engine::tilt(DeviceSpec::new(16, 4).unwrap());
    let circuits = generated_circuits(32);
    let collected = engine.run_batch(circuits.clone());
    let mut streamed: Vec<(usize, f64)> = Vec::new();
    engine.run_batch_streaming(circuits, |i, r| {
        streamed.push((i, r.unwrap().ln_success));
    });
    assert_eq!(streamed.len(), collected.len());
    for (i, ln) in &streamed {
        assert_eq!(*ln, collected[*i].as_ref().unwrap().ln_success);
    }
    assert!(streamed.windows(2).all(|w| w[0].0 + 1 == w[1].0));
}
