//! Enforced-rlimit proof that the streaming pipeline's peak memory is
//! O(window + horizon), not O(circuit): a child process compiles a deep
//! RCS workload under a `ulimit -v` address-space ceiling that the
//! monolithic path demonstrably exceeds. The ceiling is real — the
//! monolithic control child aborts on allocation failure under the same
//! limit — so a regression that buffers the stream cannot pass.
//!
//! Mechanics: each test re-execs the test binary through
//! `sh -c 'ulimit -v <KB>; exec <self> child_compile_under_rlimit ...'`
//! with the workload passed via environment variables. The `#[ignore]`d
//! child entry no-ops when the variables are absent, so a stray
//! `cargo test -- --ignored` run stays green.
//!
//! Calibration (debug profile, 8×8 RCS, window 65 536): at 4 000 cycles
//! (~368k gates, ~1.27M lowered ops) streaming completes under 99 MB
//! while the in-memory path, which holds the input circuit, the routed
//! circuit and the scheduled program, needs 282 MB; at 11 000 cycles
//! (~1.01M gates) streaming completes under 96 MB while the in-memory
//! path aborts under 640 MB. On the QCCD backend (17-ion traps) the
//! 4 000-cycle stream completes under 35 MB, the in-memory run needs at
//! least 90 MB (it aborts under every ceiling up to 88 MB), and a
//! stream that buffers the circuit needs 220 MB. The ceilings below sit
//! between the two floors with at least ~1.4× margin on each side.

use std::process::{Command, Output};
use tilt::benchmarks::stream::rcs_stream;
use tilt::compiler::TiltOp;
use tilt::engine::{Backend, Engine, NullSink, DEFAULT_STREAM_WINDOW};
use tilt::prelude::*;

const MODE_VAR: &str = "TILT_MEM_CHILD_MODE";
const CYCLES_VAR: &str = "TILT_MEM_CHILD_CYCLES";
const ROWS: usize = 8;
const COLS: usize = 8;
const SEED: u64 = 11;
/// Trap capacity of the QCCD child's array.
const QCCD_IONS_PER_TRAP: usize = 17;

/// Re-runs this test binary's `child_compile_under_rlimit` under an
/// address-space ceiling of `limit_kb` kilobytes.
fn spawn_child(mode: &str, cycles: usize, limit_kb: usize) -> Output {
    let exe = std::env::current_exe().expect("test binary path");
    Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -v {limit_kb} && \
             exec \"$1\" child_compile_under_rlimit --exact --ignored --nocapture"
        ))
        .arg("sh")
        .arg(&exe)
        .env(MODE_VAR, mode)
        .env(CYCLES_VAR, cycles.to_string())
        .output()
        .expect("spawn rlimited child")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Asserts the streaming child completed under `limit_kb` and actually
/// streamed (several increments, full gate count), and that the
/// monolithic child aborted under the same ceiling.
fn assert_separation(cycles: usize, limit_kb: usize, expect_gates: usize) {
    let stream = spawn_child("stream", cycles, limit_kb);
    let stream_out = stdout_of(&stream);
    assert!(
        stream.status.success(),
        "streaming compile must fit in {limit_kb} KB:\n{stream_out}\n{}",
        String::from_utf8_lossy(&stream.stderr)
    );
    // libtest prints `test <name> ... ` without a newline before the
    // child's own output, so the sentinel is mid-line.
    let line = stream_out
        .lines()
        .find_map(|l| l.find("CHILD_STREAM_OK").map(|i| &l[i..]))
        .unwrap_or_else(|| panic!("streaming child prints its sentinel:\n{stream_out}"));
    let field = |key: &str| -> usize {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("`{key}<n>` in `{line}`"))
    };
    assert_eq!(field("gates="), expect_gates);
    assert!(
        field("increments=") >= 2,
        "a super-horizon workload must emit multiple increments: {line}"
    );

    let mono = spawn_child("mono", cycles, limit_kb);
    let mono_out = stdout_of(&mono);
    assert!(
        !mono.status.success(),
        "the ceiling is only meaningful if the monolithic path exceeds it, \
         but it survived {limit_kb} KB:\n{mono_out}"
    );
    assert!(
        !mono_out.contains("CHILD_MONO_OK"),
        "monolithic child must have died before finishing:\n{mono_out}"
    );
}

/// In-suite proof: ~368k input gates (≈1.27M lowered ops, several
/// scheduler-horizon flushes) under a 144 MB ceiling. Streaming's
/// measured floor is 99 MB (and it runs without allocator pressure at
/// 144 MB); the in-memory path needs 282 MB and aborts.
#[test]
fn streaming_fits_under_a_ceiling_the_monolithic_compile_exceeds() {
    let cycles = 4_000;
    let expect_gates = Circuit::from_gates(ROWS * COLS, rcs_stream(ROWS, COLS, cycles, SEED)).len();
    assert_separation(cycles, 144 * 1024, expect_gates);
}

/// QCCD streams too: the greedy router needs no look-ahead, so the
/// same ~368k-gate workload routes and estimates under a 56 MB ceiling
/// (measured floor 35 MB) that the in-memory QCCD run, which holds the
/// circuit and the primitive trace, exceeds (measured floor 90 MB). A
/// stream that buffers the circuit aborts too.
#[test]
fn qccd_stream_fits_under_a_ceiling_the_in_memory_run_exceeds() {
    let (cycles, limit_kb) = (4_000, 56 * 1024);
    let expect_gates = Circuit::from_gates(ROWS * COLS, rcs_stream(ROWS, COLS, cycles, SEED)).len();
    let stream = spawn_child("qccd", cycles, limit_kb);
    let out = stdout_of(&stream);
    assert!(
        stream.status.success(),
        "QCCD stream must fit in {limit_kb} KB:\n{out}\n{}",
        String::from_utf8_lossy(&stream.stderr)
    );
    assert!(out.contains(&format!("gates={expect_gates}")), "{out}");
    let mono = spawn_child("qccd-mono", cycles, limit_kb);
    let mono_out = stdout_of(&mono);
    assert!(
        !mono.status.success() && !mono_out.contains("CHILD_MONO_OK"),
        "the in-memory QCCD run must exceed {limit_kb} KB:\n{mono_out}"
    );
}

/// The headline acceptance bar: a ≥1M-gate circuit compiles
/// under an enforced rlimit the monolithic path exceeds. Slower (~30 s
/// debug), so `#[ignore]`d for on-demand / CI runs:
/// `cargo test --test streaming_memory -- --ignored --exact million_gate_circuit_compiles_under_an_enforced_rlimit`
#[test]
#[ignore = "million-gate workload; run explicitly or in CI"]
fn million_gate_circuit_compiles_under_an_enforced_rlimit() {
    // rcs_stream(8, 8, 11_000, 11) = 1_012_064 gates (counted once by
    // the streaming child itself; materializing it here to count would
    // defeat the point).
    let cycles = 11_000;
    let stream = spawn_child("stream", cycles, 256 * 1024);
    let out = stdout_of(&stream);
    assert!(
        stream.status.success(),
        "1M-gate streaming compile must fit in 256 MB:\n{out}\n{}",
        String::from_utf8_lossy(&stream.stderr)
    );
    let line = out
        .lines()
        .find_map(|l| l.find("CHILD_STREAM_OK").map(|i| &l[i..]))
        .expect("sentinel");
    assert!(line.contains("gates=1012064"), "{line}");

    let mono = spawn_child("mono", cycles, 256 * 1024);
    assert!(
        !mono.status.success(),
        "monolithic 1M-gate compile needs >640 MB; it cannot fit in 256 MB"
    );
}

/// Child entry point, driven by [`spawn_child`] via env vars. Compiles
/// the 8×8 RCS workload on the TILT backend and prints a sentinel line
/// the parent greps. No-ops (passes) when run without the env vars.
#[test]
#[ignore = "re-exec child of the rlimit tests; driven via env vars"]
fn child_compile_under_rlimit() {
    let Ok(mode) = std::env::var(MODE_VAR) else {
        return;
    };
    let cycles: usize = std::env::var(CYCLES_VAR)
        .expect("cycles env var")
        .parse()
        .expect("numeric cycles");
    let n = ROWS * COLS;
    let backend = if mode.starts_with("qccd") {
        Backend::Qccd(QccdSpec::for_qubits(n, QCCD_IONS_PER_TRAP).unwrap())
    } else {
        Backend::Tilt(DeviceSpec::new(n, 16).unwrap())
    };
    let engine = Engine::builder().backend(backend).build().unwrap();
    match mode.as_str() {
        "qccd" => {
            let outcome = engine
                .run_streaming(
                    n,
                    rcs_stream(ROWS, COLS, cycles, SEED),
                    DEFAULT_STREAM_WINDOW,
                    &mut NullSink,
                )
                .unwrap();
            println!(
                "CHILD_QCCD_OK transports={} gates={}",
                outcome.compile.move_count, outcome.input_gate_count
            );
        }
        "qccd-mono" => {
            let circuit = Circuit::from_gates(n, rcs_stream(ROWS, COLS, cycles, SEED));
            let report = engine.run(&circuit).unwrap();
            println!("CHILD_MONO_OK transports={}", report.compile.move_count);
        }
        "stream" => {
            let mut sink = |_shard: usize, _ops: &[TiltOp]| {};
            let outcome = engine
                .run_streaming(
                    n,
                    rcs_stream(ROWS, COLS, cycles, SEED),
                    DEFAULT_STREAM_WINDOW,
                    &mut sink,
                )
                .unwrap();
            println!(
                "CHILD_STREAM_OK increments={} gates={}",
                outcome.increments, outcome.input_gate_count
            );
        }
        "mono" => {
            let circuit = Circuit::from_gates(n, rcs_stream(ROWS, COLS, cycles, SEED));
            let report = engine.run(&circuit).unwrap();
            println!(
                "CHILD_MONO_OK ops={}",
                report.tilt_program().unwrap().ops().len()
            );
        }
        other => panic!("unknown child mode `{other}`"),
    }
}
