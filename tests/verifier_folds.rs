//! The verifier rule packs are folds, driven the same way whether the
//! artifacts are finished or still streaming.
//!
//! * **Chunking never changes a finding.** Each mutation fixture of
//!   `tests/verifier_properties.rs` is replayed through the fold with
//!   the routed/ops chunk boundaries a real streamed compile produces at
//!   windows 1, 64 and 1024; the findings must equal
//!   `verify_tilt`/`verify_scaled` on the finished artifact.
//! * **Streamed runs verify like in-memory runs.** Random circuits on
//!   the TILT tape and the ELU array run through `Engine::run_streaming`
//!   under `Warn` and `Strict` at every window: the diagnostics, and a
//!   strict failure, must equal `Engine::run`'s.

use proptest::prelude::*;
use tilt::compiler::verify::{verify_tilt, TiltVerifier};
use tilt::compiler::{ProgramSink, StreamingCompiler, TiltOp, TiltProgram};
use tilt::engine::stream::NullSink;
use tilt::prelude::*;
use tilt::scale::{verify_scaled, ScaledSink, ScaledStreamingCompiler, ScaledVerifier};

const WINDOWS: [usize; 3] = [1, 64, 1024];

/// One delivery of a streamed compile: a routed or an op chunk of some
/// ELU (always 0 on the TILT tape), by length.
#[derive(Clone, Copy, Debug)]
enum Chunk {
    Routed(usize, usize),
    Ops(usize, usize),
}

/// Records the chunk boundaries a streamed compile delivers.
#[derive(Default)]
struct Recorder(Vec<Chunk>);

impl ProgramSink for Recorder {
    fn emit(&mut self, ops: &[TiltOp]) {
        self.0.push(Chunk::Ops(0, ops.len()));
    }

    fn routed(&mut self, gates: &[Gate]) {
        self.0.push(Chunk::Routed(0, gates.len()));
    }
}

impl ScaledSink for Recorder {
    fn emit(&mut self, elu: usize, ops: &[TiltOp]) {
        self.0.push(Chunk::Ops(elu, ops.len()));
    }

    fn routed(&mut self, elu: usize, gates: &[Gate]) {
        self.0.push(Chunk::Routed(elu, gates.len()));
    }
}

/// The chunk boundaries of `circuit` streamed through `compiler`.
fn tilt_chunks(compiler: &Compiler, circuit: &Circuit, window: usize) -> Vec<Chunk> {
    let mut rec = Recorder::default();
    let mut session = StreamingCompiler::new(compiler, circuit.n_qubits(), window).unwrap();
    for g in circuit.gates() {
        session.push(*g, &mut rec).unwrap();
    }
    session.finish(&mut rec);
    rec.0
}

/// The per-ELU chunk boundaries of `circuit` streamed onto `spec`.
fn scaled_chunks(spec: &ScaleSpec, circuit: &Circuit, window: usize) -> Vec<Chunk> {
    let mut rec = Recorder::default();
    let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
    let mut session =
        ScaledStreamingCompiler::new(spec, circuit.n_qubits(), window, &noise, &times).unwrap();
    for g in circuit.gates() {
        session.push(*g, &mut rec).unwrap();
    }
    session.finish(&mut rec).unwrap();
    rec.0
}

/// Splits per-ELU `routed`/`ops` streams at the recorded boundaries
/// (clamped: a mutation may have changed a stream's length) and hands
/// them to `deliver` in the recorded order, then whatever is left.
fn replay(
    chunks: &[Chunk],
    routed: &[&[Gate]],
    ops: &[&[TiltOp]],
    mut deliver: impl FnMut(usize, Result<&[Gate], &[TiltOp]>),
) {
    let (mut r, mut o) = (vec![0usize; routed.len()], vec![0usize; ops.len()]);
    for chunk in chunks {
        match *chunk {
            Chunk::Routed(e, n) => {
                let end = (r[e] + n).min(routed[e].len());
                deliver(e, Ok(&routed[e][r[e]..end]));
                r[e] = end;
            }
            Chunk::Ops(e, n) => {
                let end = (o[e] + n).min(ops[e].len());
                deliver(e, Err(&ops[e][o[e]..end]));
                o[e] = end;
            }
        }
    }
    for e in 0..routed.len() {
        deliver(e, Ok(&routed[e][r[e]..]));
        deliver(e, Err(&ops[e][o[e]..]));
    }
}

/// Replays a (possibly corrupted) TILT compile through the fold at
/// every window's boundaries and checks it against `verify_tilt`.
fn assert_tilt_fold_matches(compiler: &Compiler, circuit: &Circuit, out: &CompileOutput) {
    let spec = *out.program.spec();
    let cap = RouterKind::default().max_swap_span(spec);
    let whole = verify_tilt(out, cap);
    for window in WINDOWS {
        let chunks = tilt_chunks(compiler, circuit, window);
        let mut fold = TiltVerifier::new(spec, cap, out.routed.initial_mapping.clone());
        replay(
            &chunks,
            &[out.routed.circuit.gates()],
            &[out.program.ops()],
            |_, chunk| match chunk {
                Ok(gates) => fold.routed(gates),
                Err(ops) => fold.emit(ops),
            },
        );
        assert_eq!(
            fold.finish(&out.routed.final_mapping),
            whole,
            "window {window}"
        );
    }
}

#[test]
fn corrupted_operand_fold_matches_the_whole_walk() {
    let mut c = Circuit::new(12);
    for i in 0..40 {
        c.ry(Qubit(i % 12), 0.1 + i as f64 * 0.01);
        c.cnot(Qubit(i % 12), Qubit((i * 5 + 7) % 12));
    }
    let spec = DeviceSpec::new(12, 6).unwrap();
    let compiler = Compiler::new(spec);
    let out = compiler.compile(&c).unwrap();
    let gates: Vec<usize> = (0..out.program.ops().len())
        .filter(|&i| matches!(out.program.ops()[i], TiltOp::Gate { .. }))
        .collect();
    for pick in [0, gates.len() / 3, gates.len() - 1] {
        let mut ops = out.program.ops().to_vec();
        if let TiltOp::Gate { gate, .. } = &mut ops[gates[pick]] {
            let target = gate.qubits()[0];
            *gate = gate.map_qubits(|q| {
                if q == target {
                    Qubit(spec.n_ions() + 3)
                } else {
                    q
                }
            });
        }
        let mut corrupt = out.clone();
        corrupt.program = TiltProgram::new_unchecked(spec, ops);
        assert!(!verify_tilt(&corrupt, 5).is_empty());
        assert_tilt_fold_matches(&compiler, &c, &corrupt);
    }
}

#[test]
fn lengthened_swap_chain_fold_matches_the_whole_walk() {
    let mut c = Circuit::new(12);
    c.cnot(Qubit(0), Qubit(11));
    let spec = DeviceSpec::new(12, 4).unwrap();
    let compiler = Compiler::new(spec);
    let out = compiler.compile(&c).unwrap();
    let cap = RouterKind::default().max_swap_span(spec);
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
    assert!(verify_tilt(&corrupt, cap)
        .iter()
        .any(|d| d.rule == "tilt/swap-chain"));
    assert_tilt_fold_matches(&compiler, &c, &corrupt);
}

#[test]
fn scrambled_schedule_fold_matches_the_whole_walk() {
    let mut c = Circuit::new(8);
    for i in 0..8 {
        c.ry(Qubit(i), 0.3);
        c.rz(Qubit(i), 0.7);
    }
    let spec = DeviceSpec::new(8, 4).unwrap();
    let compiler = Compiler::new(spec);
    let out = compiler.compile(&c).unwrap();
    let mut ops = out.program.ops().to_vec();
    let on_q0: Vec<usize> = (0..ops.len())
        .filter(
            |&i| matches!(ops[i], TiltOp::Gate { gate, .. } if gate.qubits().contains(&Qubit(0))),
        )
        .collect();
    ops.swap(on_q0[0], on_q0[1]);
    // Also drop the last op and invent one past the routed sequence,
    // so the missing and beyond halves of the rule fire too.
    ops.pop();
    ops.push(TiltOp::Gate {
        gate: Gate::Rx(Qubit(5), 0.5),
        head_pos: 4,
    });
    let mut corrupt = out.clone();
    corrupt.program = TiltProgram::new_unchecked(spec, ops);
    let diags = verify_tilt(&corrupt, 3);
    assert!(
        diags
            .iter()
            .filter(|d| d.rule == "tilt/schedule-order")
            .count()
            >= 2,
        "{diags:?}"
    );
    assert_tilt_fold_matches(&compiler, &c, &corrupt);
}

/// Also an operand off the ELU tape and an over-counted EPR ledger.
#[test]
fn dropped_reset_fold_matches_the_whole_walk() {
    let mut c = Circuit::new(16);
    for _ in 0..4 {
        c.cnot(Qubit(7), Qubit(8));
    }
    let spec = ScaleSpec::new(10, 4).unwrap();
    let mut program = compile_scaled(&c, &spec).unwrap();
    let not_reset = |g: &Gate| !matches!(g, Gate::Reset(_));
    for out in &mut program.elu_outputs {
        let elu = *out.program.spec();
        let mut ops: Vec<TiltOp> = out
            .program
            .ops()
            .iter()
            .filter(|op| !matches!(op, TiltOp::Gate { gate, .. } if !not_reset(gate)))
            .copied()
            .collect();
        // An operand past the ELU tape, mid-stream: the per-op half of
        // the comm-slot budget, indexed by gate, not by op.
        ops.insert(
            ops.len() / 2,
            TiltOp::Gate {
                gate: Gate::Rx(Qubit(elu.n_ions()), 0.5),
                head_pos: 0,
            },
        );
        out.program = TiltProgram::new_unchecked(elu, ops);
        let width = out.routed.circuit.n_qubits();
        let gates: Vec<Gate> = out
            .routed
            .circuit
            .iter()
            .copied()
            .filter(not_reset)
            .collect();
        out.routed.circuit = Circuit::from_gates(width, gates);
    }
    program.epr_pairs += 1;
    let whole = verify_scaled(&program);
    for rule in ["scaled/measured-unreset", "scaled/comm-slot-budget"] {
        assert!(whole.iter().any(|d| d.rule == rule), "{rule}: {whole:?}");
    }
    let off_tape = whole
        .iter()
        .filter(|d| d.message.contains("past the 8 data"));
    assert_eq!(off_tape.count(), program.elu_outputs.len(), "{whole:?}");
    let outs = &program.elu_outputs;
    let routed: Vec<&[Gate]> = outs.iter().map(|o| o.routed.circuit.gates()).collect();
    let ops: Vec<&[TiltOp]> = outs.iter().map(|o| o.program.ops()).collect();
    for window in WINDOWS {
        let chunks = scaled_chunks(&spec, &c, window);
        let mut fold =
            ScaledVerifier::new(&spec, outs.iter().map(|o| o.routed.initial_mapping.clone()));
        replay(&chunks, &routed, &ops, |e, chunk| match chunk {
            Ok(gates) => fold.routed(e, gates),
            Err(ops) => fold.emit(e, ops),
        });
        let finals = outs.iter().map(|o| &o.routed.final_mapping);
        assert_eq!(
            fold.finish(finals, program.epr_pairs),
            whole,
            "window {window}"
        );
    }
}

/// A random circuit with mid-circuit measurements, which the scaled
/// pack reports when a measured qubit is used again.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (6usize..16).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n).prop_map(|q| (0, q, q)),
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| (1, a, b)),
            (0..n).prop_map(|q| (2, q, q)),
        ];
        (Just(n), prop::collection::vec(gate, 1..48)).prop_map(|(n, specs)| {
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
                        c.measure(Qubit(a));
                    }
                }
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_runs_verify_like_in_memory_runs(circuit in circuit_strategy()) {
        let n = circuit.n_qubits();
        let backends = [
            Backend::Tilt(DeviceSpec::new(n.max(4), (n / 2).max(2)).unwrap()),
            Backend::Scaled(ScaleSpec::new(10, 4).unwrap()),
        ];
        for backend in backends {
            for level in [VerifyLevel::Warn, VerifyLevel::Strict] {
                let engine = Engine::builder().backend(backend).verify(level).build().unwrap();
                let mono = engine.run(&circuit).map(|r| r.diagnostics);
                for window in [1, 64, 1024, usize::MAX] {
                    let streamed = engine
                        .run_streaming(n, circuit.gates().iter().copied(), window, &mut NullSink)
                        .map(|o| o.diagnostics);
                    prop_assert_eq!(
                        format!("{streamed:?}"),
                        format!("{mono:?}"),
                        "{:?} {:?} window {}", backend, level, window
                    );
                    if let Err(e) = &streamed {
                        prop_assert!(matches!(e, TiltError::Verify { .. }), "{e}");
                    }
                }
            }
        }
    }
}
