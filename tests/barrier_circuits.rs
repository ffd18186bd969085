//! Circuits that end on a fence, or hold nothing but one.
//!
//! Once every countable gate has run, the scheduler's last rounds see
//! only barriers ready: no head position can score them, so they retire
//! in place without moving the tape. Every entry point must agree on
//! that — the monolithic `Engine::run`, a windowed `StreamingCompiler`,
//! and a `tilt serve` request.

use std::io::Cursor;
use tilt::circuit::qasm::parse_qasm;
use tilt::compiler::{CollectSink, Compiler, DeviceSpec, StreamingCompiler};
use tilt::engine::{Backend, Engine, Service};
use tilt::report::Json;

/// Barrier-only and barrier-tailed programs on a 4-ion tape.
const CASES: [&str; 4] = [
    "qreg q[4];\nbarrier q;\n",
    "qreg q[4];\nbarrier q;\nbarrier q;\n",
    "qreg q[4];\ncx q[0], q[3];\nbarrier q;\n",
    "qreg q[4];\nh q[1];\nbarrier q;\nmeasure q[1];\nbarrier q;\n",
];

fn spec() -> DeviceSpec {
    DeviceSpec::new(4, 2).unwrap()
}

#[test]
fn engine_run_and_compile_stream_agree_on_fenced_tails() {
    let engine = Engine::tilt(spec());
    let compiler = Compiler::new(spec());
    for text in CASES {
        let circuit = parse_qasm(text).unwrap();
        let report = engine
            .run(&circuit)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let program = report.tilt_program().unwrap();
        for window in [1, 2, 1024] {
            let mut sink = CollectSink::default();
            let mut session = StreamingCompiler::new(&compiler, circuit.n_qubits(), window)
                .unwrap_or_else(|e| panic!("{text} window {window}: {e}"));
            for g in circuit.gates() {
                session
                    .push(*g, &mut sink)
                    .unwrap_or_else(|e| panic!("{text} window {window}: {e}"));
            }
            let summary = session.finish(&mut sink);
            assert_eq!(sink.ops, program.ops(), "{text} window {window}");
            assert_eq!(summary.report.move_count, program.move_count(), "{text}");
        }
    }
    let only = engine.run(&parse_qasm(CASES[0]).unwrap()).unwrap();
    assert!(only.tilt_program().unwrap().ops().is_empty());
}

#[test]
fn serve_answers_a_barrier_only_request() {
    let builder = Engine::builder().backend(Backend::Tilt(spec()));
    let mut service = Service::new(builder).unwrap();
    let request = format!(
        "{{\"id\":1,\"qasm\":\"{}\"}}\n",
        CASES[0].replace('\n', "\\n")
    );
    let mut out = Vec::new();
    service.serve(Cursor::new(request), &mut out, None).unwrap();
    let line = String::from_utf8(out).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
}
