//! Error-path coverage for the session API: every backend's invalid
//! specs and misfit circuits must surface as the right [`TiltError`]
//! variant, with messages that keep the numbers a user needs.

use tilt::circuit::{Circuit, ValidateCircuitError};
use tilt::compiler::{CompileError, InitialMapping};
use tilt::engine::{Backend, Engine, NullSink, TiltError};
use tilt::prelude::*;
use tilt::qccd::QccdError;
use tilt::scale::ScaleError;

/// Builds a TILT engine through `?`, as a downstream client would.
fn tilt_engine(n_ions: usize, head: usize) -> Result<Engine, TiltError> {
    Engine::builder()
        .backend(Backend::Tilt(DeviceSpec::new(n_ions, head)?))
        .build()
}

#[test]
fn tilt_head_wider_than_tape_is_invalid_spec() {
    let err = tilt_engine(8, 12).unwrap_err();
    assert!(matches!(
        err,
        TiltError::Compile(CompileError::InvalidSpec {
            n_ions: 8,
            head_size: 12
        })
    ));
    let msg = err.to_string();
    assert!(msg.contains('8') && msg.contains("12"), "{msg}");
}

#[test]
fn tilt_zero_ion_tape_is_invalid_spec() {
    let err = tilt_engine(0, 0).unwrap_err();
    assert!(matches!(
        err,
        TiltError::Compile(CompileError::InvalidSpec { .. })
    ));
}

#[test]
fn tilt_circuit_wider_than_tape_is_reported_with_numbers() {
    let engine = tilt_engine(64, 16).unwrap();
    let err = engine.run(&Circuit::new(80)).unwrap_err();
    assert!(matches!(
        err,
        TiltError::Compile(CompileError::CircuitTooWide {
            circuit_qubits: 80,
            n_ions: 64
        })
    ));
    let msg = err.to_string();
    assert!(msg.contains("80") && msg.contains("64"), "{msg}");
}

#[test]
fn qccd_zero_traps_is_invalid_spec() {
    let err: TiltError = QccdSpec::new(0, 6).unwrap_err().into();
    assert!(matches!(
        err,
        TiltError::Qccd(QccdError::InvalidSpec { .. })
    ));
    assert!(err.to_string().contains("at least one trap"), "{err}");
}

#[test]
fn qccd_zero_ions_per_trap_is_invalid_spec() {
    let err: TiltError = QccdSpec::for_qubits(16, 0).unwrap_err().into();
    assert!(matches!(
        err,
        TiltError::Qccd(QccdError::InvalidSpec { .. })
    ));
}

#[test]
fn qccd_circuit_wider_than_array_is_reported_with_numbers() {
    let spec = QccdSpec::for_qubits(16, 4).unwrap();
    let engine = Engine::qccd(spec);
    let err = engine.run(&Circuit::new(40)).unwrap_err();
    assert!(matches!(
        err,
        TiltError::Qccd(QccdError::CircuitTooWide {
            circuit_qubits: 40,
            ..
        })
    ));
    assert!(err.to_string().contains("40"), "{err}");
}

#[test]
fn scaled_degenerate_elu_is_invalid_spec() {
    // Too small to hold data ions beside the comm slots.
    let err: TiltError = ScaleSpec::new(3, 2).unwrap_err().into();
    assert!(matches!(
        err,
        TiltError::Scale(ScaleError::InvalidSpec { .. })
    ));
    // Head wider than the ELU.
    let err: TiltError = ScaleSpec::new(18, 19).unwrap_err().into();
    assert!(matches!(
        err,
        TiltError::Scale(ScaleError::InvalidSpec { .. })
    ));
}

#[test]
fn scaled_per_elu_failure_names_the_elu() {
    // Every ELU's streaming compiler rejects a whole-circuit initial
    // mapping; the first one to fail is named.
    let spec = ScaleSpec::new(10, 4)
        .unwrap()
        .with_initial_mapping(InitialMapping::InteractionChain);
    let engine = Engine::scaled(spec);
    let err = engine
        .run_streaming(16, [Gate::H(Qubit(0))], 64, &mut NullSink)
        .unwrap_err();
    assert!(matches!(
        err,
        TiltError::Scale(ScaleError::EluCompile { elu: 0, .. })
    ));
    assert!(err.to_string().contains("ELU 0"), "{err}");
}

/// The three kinds of malformed gate, each placed at input index 2.
fn malformed_circuits(n: usize) -> Vec<(&'static str, Circuit)> {
    let bad = [
        ("out-of-range operand", Gate::Cnot(Qubit(1), Qubit(n + 3))),
        ("out-of-range single", Gate::H(Qubit(n))),
        ("non-finite angle", Gate::Rz(Qubit(0), f64::INFINITY)),
        ("NaN angle", Gate::Rx(Qubit(2), f64::NAN)),
        ("repeated operand", Gate::Cnot(Qubit(3), Qubit(3))),
        (
            "repeated Toffoli operand",
            Gate::Toffoli(Qubit(1), Qubit(2), Qubit(1)),
        ),
    ];
    bad.into_iter()
        .map(|(what, g)| {
            let mut c = Circuit::new(n);
            c.h(Qubit(0)).cnot(Qubit(0), Qubit(n - 1));
            c.push(g);
            c.cnot(Qubit(1), Qubit(2));
            (what, c)
        })
        .collect()
}

/// The validation error a backend wraps, if `err` is one.
fn invalid_circuit(err: &TiltError) -> Option<&ValidateCircuitError> {
    match err {
        TiltError::Compile(CompileError::InvalidCircuit(e))
        | TiltError::Qccd(QccdError::InvalidCircuit(e))
        | TiltError::Scale(ScaleError::InvalidCircuit(e)) => Some(e),
        _ => None,
    }
}

fn gate_index(e: &ValidateCircuitError) -> usize {
    match *e {
        ValidateCircuitError::QubitOutOfRange { gate_index, .. }
        | ValidateCircuitError::DuplicateOperand { gate_index, .. }
        | ValidateCircuitError::NonFiniteAngle { gate_index } => gate_index,
    }
}

#[test]
fn malformed_input_is_a_typed_error_on_every_backend_and_path() {
    let n = 16;
    let engines = [
        ("tilt", Engine::tilt(DeviceSpec::new(n, 4).unwrap())),
        ("qccd", Engine::qccd(QccdSpec::for_qubits(n, 5).unwrap())),
        ("scaled", Engine::scaled(ScaleSpec::new(10, 4).unwrap())),
    ];
    for (backend, engine) in &engines {
        for (what, c) in malformed_circuits(n) {
            let run = engine.run(&c).unwrap_err();
            let streamed = engine
                .run_streaming(n, c.gates().iter().copied(), 1, &mut NullSink)
                .unwrap_err();
            let e = invalid_circuit(&run)
                .unwrap_or_else(|| panic!("{backend}/{what}: untyped {run:?}"));
            assert_eq!(gate_index(e), 2, "{backend}/{what}: {run}");
            assert_eq!(streamed, run, "{backend}/{what}: both paths agree");
        }
    }
}

#[test]
fn tilt_invalid_circuit_is_surfaced() {
    let mut bad = Circuit::new(4);
    bad.rz(Qubit(0), f64::NAN);
    let engine = tilt_engine(4, 4).unwrap();
    let err = engine.run(&bad).unwrap_err();
    assert!(matches!(
        err,
        TiltError::Compile(CompileError::InvalidCircuit(_))
    ));
}

#[test]
fn missing_backend_is_a_config_error() {
    let err = Engine::builder().build().unwrap_err();
    assert!(matches!(err, TiltError::Config { .. }));
    assert!(err.to_string().contains("no backend"), "{err}");
}

#[test]
fn inconsistent_router_fails_at_build_not_run() {
    use tilt::compiler::route::LinqConfig;
    // max_swap_len ≥ head is rejected when the session is built, so a
    // batch never discovers it per circuit.
    let err = Engine::builder()
        .backend(Backend::Tilt(DeviceSpec::new(16, 4).unwrap()))
        .router(RouterKind::Linq(LinqConfig::with_max_swap_len(4)))
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        TiltError::Compile(CompileError::InvalidRouterConfig { .. })
    ));
}

#[test]
fn batch_reports_each_failure_individually() {
    let engine = tilt_engine(8, 4).unwrap();
    let mut ok = Circuit::new(8);
    ok.h(Qubit(0)).cnot(Qubit(0), Qubit(7));
    let mut invalid = Circuit::new(8);
    invalid.rz(Qubit(0), f64::INFINITY);
    let reports = engine.run_batch(vec![ok.clone(), Circuit::new(9), invalid, ok]);
    assert!(reports[0].is_ok());
    assert!(matches!(
        reports[1],
        Err(TiltError::Compile(CompileError::CircuitTooWide { .. }))
    ));
    assert!(matches!(
        reports[2],
        Err(TiltError::Compile(CompileError::InvalidCircuit(_)))
    ));
    assert!(reports[3].is_ok());
}

#[test]
fn source_chain_reaches_the_backend_error() {
    use std::error::Error as _;
    let err = tilt_engine(4, 9).unwrap_err();
    let source = err.source().expect("wrapped errors chain their source");
    assert!(source.to_string().contains("invalid device spec"));
}
