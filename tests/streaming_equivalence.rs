//! Decision-identity acceptance tests for the streaming compile
//! pipeline: at **every** window size, the windowed pipeline must be
//! byte-identical to the monolithic one — same program op stream (and
//! rendered program text), same final mapping, same `ln_success`, same
//! `exec_time_us` — across the TILT, scaled (sharded per-ELU), and
//! QCCD (gate-by-gate) backends. A window that changed a routing
//! or scheduling decision would silently change the physics the
//! estimates model, so *any* divergence here is a bug, never a tuning
//! trade-off.

use proptest::prelude::*;
use tilt::benchmarks::qft::qft;
use tilt::benchmarks::stream::{qft_stream, rcs_stream};
use tilt::circuit::{qasm, Gate, Qubit};
use tilt::compiler::{CollectSink, StreamingCompiler, TiltOp, TiltProgram};
use tilt::engine::{Backend, Engine};
use tilt::prelude::*;

/// The window sizes the acceptance criteria name: small (many windows),
/// large (a few), and whole-circuit (streaming degenerates to one
/// window).
const WINDOWS: [usize; 3] = [64, 1024, usize::MAX];

/// Collects `(shard, ops)` increments per shard.
#[derive(Default)]
struct ShardSink {
    shards: Vec<Vec<TiltOp>>,
    increments: usize,
}

impl tilt::engine::StreamSink for ShardSink {
    fn emit(&mut self, shard: usize, ops: &[TiltOp]) {
        if self.shards.len() <= shard {
            self.shards.resize_with(shard + 1, Vec::new);
        }
        self.shards[shard].extend_from_slice(ops);
        self.increments += 1;
    }
}

#[test]
fn tilt_streaming_is_byte_identical_at_every_window() {
    let circuit = qft(24);
    let spec = DeviceSpec::new(24, 8).unwrap();
    let engine = Engine::builder()
        .backend(Backend::Tilt(spec))
        .build()
        .unwrap();
    let mono = engine.run(&circuit).unwrap();
    let mono_program = mono.tilt_program().unwrap();

    for window in WINDOWS {
        let mut sink = ShardSink::default();
        let outcome = engine
            .run_streaming(
                circuit.n_qubits(),
                circuit.iter().copied(),
                window,
                &mut sink,
            )
            .unwrap();

        // Program byte-identity: the concatenated increments are the
        // monolithic op stream, and rendering them as a program yields
        // the identical text (header included).
        assert_eq!(sink.shards.len(), 1, "TILT is a single shard");
        assert_eq!(sink.shards[0], mono_program.ops(), "window {window}");
        let rebuilt = TiltProgram::new_unchecked(spec, sink.shards[0].clone());
        assert_eq!(rebuilt.to_string(), mono_program.to_string());
        // Sub-horizon circuits legally drain as one increment at EOF
        // (the scheduler's eligibility horizon is what bounds memory);
        // what must hold is that the engine's count matches the sink's.
        assert_eq!(outcome.increments, sink.increments);
        assert!(outcome.increments >= 1);

        // Estimate bit-identity.
        assert_eq!(outcome.ln_success.to_bits(), mono.ln_success.to_bits());
        assert_eq!(outcome.success.to_bits(), mono.success.to_bits());
        assert_eq!(outcome.exec_time_us.to_bits(), mono.exec_time_us.to_bits());
        assert_eq!(outcome.compile.swap_count, mono.compile.swap_count);
        assert_eq!(outcome.compile.move_count, mono.compile.move_count);
        assert_eq!(outcome.compile.move_distance, mono.compile.move_distance);
        assert_eq!(
            outcome.compile.native_gate_count,
            mono.compile.native_gate_count
        );
        assert_eq!(outcome.input_gate_count, circuit.len());
    }
}

#[test]
fn streaming_final_mapping_matches_the_monolithic_router() {
    let circuit = qft(20);
    let spec = DeviceSpec::new(20, 5).unwrap();
    let compiler = Compiler::new(spec);
    let mono = compiler.compile(&circuit).unwrap();
    for window in WINDOWS {
        let mut sink = CollectSink::default();
        let mut session = StreamingCompiler::new(&compiler, circuit.n_qubits(), window).unwrap();
        for g in &circuit {
            session.push(*g, &mut sink).unwrap();
        }
        let summary = session.finish(&mut sink);
        assert_eq!(
            summary.final_mapping, mono.routed.final_mapping,
            "window {window}"
        );
        assert_eq!(summary.initial_mapping, mono.routed.initial_mapping);
        assert_eq!(sink.ops, mono.program.ops());
    }
}

#[test]
fn scaled_streaming_matches_per_elu_programs_at_every_window() {
    // 16 qubits over 10-data-ion ELUs: qubits 7↔8 gates are remote, so
    // the EPR machinery is exercised, sharded across two ELUs.
    let mut c = Circuit::new(16);
    for i in 0..8 {
        c.h(Qubit(i));
    }
    for _ in 0..3 {
        c.cnot(Qubit(7), Qubit(8));
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(14), Qubit(15));
    }
    let spec = ScaleSpec::new(10, 4).unwrap();
    let engine = Engine::builder()
        .backend(Backend::Scaled(spec))
        .build()
        .unwrap();
    let mono = engine.run(&c).unwrap();
    let tilt::engine::RunDetail::Scaled { program, .. } = &mono.detail else {
        panic!("scaled backend produces scaled detail");
    };

    for window in WINDOWS {
        let mut sink = ShardSink::default();
        let outcome = engine
            .run_streaming(c.n_qubits(), c.iter().copied(), window, &mut sink)
            .unwrap();
        assert_eq!(sink.shards.len(), program.elu_outputs.len());
        for (e, out) in program.elu_outputs.iter().enumerate() {
            assert_eq!(
                sink.shards[e],
                out.program.ops(),
                "elu {e}, window {window}"
            );
        }
        assert_eq!(outcome.ln_success.to_bits(), mono.ln_success.to_bits());
        assert_eq!(outcome.exec_time_us.to_bits(), mono.exec_time_us.to_bits());
        assert_eq!(outcome.compile.epr_pairs, mono.compile.epr_pairs);
        assert!(outcome.compile.epr_pairs >= 3, "remote gates teleport");
    }
}

#[test]
fn qccd_streaming_matches_the_monolithic_run() {
    let mut c = Circuit::new(20);
    for i in 0..19 {
        c.cnot(Qubit(i), Qubit(i + 1));
    }
    let spec = QccdSpec::for_qubits(20, 17).unwrap();
    let engine = Engine::builder()
        .backend(Backend::Qccd(spec))
        .build()
        .unwrap();
    let mono = engine.run(&c).unwrap();
    for window in WINDOWS {
        let mut sink = ShardSink::default();
        let outcome = engine
            .run_streaming(c.n_qubits(), c.iter().copied(), window, &mut sink)
            .unwrap();
        assert_eq!(outcome.ln_success.to_bits(), mono.ln_success.to_bits());
        assert_eq!(outcome.exec_time_us.to_bits(), mono.exec_time_us.to_bits());
        // QCCD routes gate by gate, but its primitives are not tape
        // ops: the stream delivers no increments.
        assert_eq!(outcome.increments, 0);
    }
}

#[test]
fn qasm_stream_path_matches_the_in_memory_gate_stream() {
    // Generator → streaming QASM writer → QasmStream reader → windowed
    // compile equals generator → windowed compile directly: the text
    // round trip inserts no decision drift.
    let n = 12;
    let mut text = Vec::new();
    qasm::write_qasm_stream(n, qft_stream(n), &mut text).unwrap();
    let spec = DeviceSpec::new(n, 4).unwrap();
    let engine = Engine::builder()
        .backend(Backend::Tilt(spec))
        .build()
        .unwrap();

    let mut direct = ShardSink::default();
    let direct_outcome = engine
        .run_streaming(n, qft_stream(n), 64, &mut direct)
        .unwrap();
    let mut via_qasm = ShardSink::default();
    let qasm_outcome = engine
        .run_streaming_qasm(text.as_slice(), 64, &mut via_qasm)
        .unwrap();

    assert_eq!(direct.shards, via_qasm.shards);
    assert_eq!(
        direct_outcome.ln_success.to_bits(),
        qasm_outcome.ln_success.to_bits()
    );
    assert_eq!(
        direct_outcome.exec_time_us.to_bits(),
        qasm_outcome.exec_time_us.to_bits()
    );
    assert_eq!(
        direct_outcome.input_gate_count,
        qasm_outcome.input_gate_count
    );
}

#[test]
fn deep_rcs_stream_compiles_in_bounded_windows() {
    // A deep streamed workload (never materialized as a Circuit) agrees
    // with the materialized compile of the same gate sequence.
    let (rows, cols, cycles, seed) = (4, 4, 40, 11);
    let circuit = Circuit::from_gates(rows * cols, rcs_stream(rows, cols, cycles, seed));
    let spec = DeviceSpec::new(rows * cols, 4).unwrap();
    let engine = Engine::builder()
        .backend(Backend::Tilt(spec))
        .build()
        .unwrap();
    let mono = engine.run(&circuit).unwrap();
    let mut sink = ShardSink::default();
    let outcome = engine
        .run_streaming(
            rows * cols,
            rcs_stream(rows, cols, cycles, seed),
            128,
            &mut sink,
        )
        .unwrap();
    assert_eq!(sink.shards[0], mono.tilt_program().unwrap().ops());
    assert_eq!(outcome.ln_success.to_bits(), mono.ln_success.to_bits());
    assert_eq!(outcome.input_gate_count, circuit.len());
}

/// Random program-level gate on `n` qubits.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    prop_oneof![
        (0..n).prop_map(|q| Gate::H(Qubit(q))),
        (0..n).prop_map(|q| Gate::T(Qubit(q))),
        (0..n, 0..n).prop_map(move |(a, b)| {
            if a == b {
                Gate::Rz(Qubit(a), 0.4)
            } else {
                Gate::Cnot(Qubit(a), Qubit(b))
            }
        }),
        (0..n, 0..n).prop_map(move |(a, b)| {
            if a == b {
                Gate::Rx(Qubit(a), 0.9)
            } else {
                Gate::Cz(Qubit(a), Qubit(b))
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random circuits × random window boundaries: the streamed op
    /// stream and estimates always equal the monolithic run's.
    #[test]
    fn random_circuits_stream_identically_at_random_windows(
        gates in prop::collection::vec(gate_strategy(12), 1..160),
        window in 1usize..200,
    ) {
        let circuit = Circuit::from_gates(12, gates);
        let spec = DeviceSpec::new(12, 4).unwrap();
        let engine = Engine::builder().backend(Backend::Tilt(spec)).build().unwrap();
        let mono = engine.run(&circuit).unwrap();
        let mut sink = ShardSink::default();
        let outcome = engine
            .run_streaming(12, circuit.iter().copied(), window, &mut sink)
            .unwrap();
        prop_assert_eq!(&sink.shards[0], mono.tilt_program().unwrap().ops());
        prop_assert_eq!(outcome.ln_success.to_bits(), mono.ln_success.to_bits());
        prop_assert_eq!(outcome.exec_time_us.to_bits(), mono.exec_time_us.to_bits());
        prop_assert_eq!(outcome.compile.swap_count, mono.compile.swap_count);
        prop_assert_eq!(outcome.compile.move_count, mono.compile.move_count);
    }
}
