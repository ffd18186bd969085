//! # TILT — trapped-ion linear-tape quantum computing, reproduced in Rust
//!
//! This is the umbrella crate of a full reproduction of *TILT: Achieving
//! Higher Fidelity on a Trapped-Ion Linear-Tape Quantum Computing
//! Architecture* (Wu et al., HPCA 2021). It re-exports the workspace
//! crates under stable module names:
//!
//! * [`engine`] — **the front door**: a session-style [`Engine`](engine::Engine)
//!   that owns the device spec, noise/timing models, and compilation
//!   policies once, then compiles + simulates one circuit ([`run`](engine::Engine::run))
//!   or thousands ([`run_batch`](engine::Engine::run_batch)) across any
//!   backend — TILT, the QCCD comparator, or MUSIQC-style ELU arrays.
//! * [`circuit`] — quantum-circuit IR (gates, DAG, QASM).
//! * [`benchmarks`] — the Table II NISQ workload generators.
//! * [`compiler`] — LinQ: decomposition, swap insertion (Algorithm 1),
//!   tape scheduling (Algorithm 2).
//! * [`sim`] — Eq. 3/4/5 noise, success-rate, and timing models.
//! * [`stabilizer`] — bit-packed Clifford tableau simulator for
//!   QEC-scale (hundreds of qubits) stabilizer circuits.
//! * [`statevec`] — dense state-vector simulator (≤ ~24 qubits).
//! * [`qccd`] — the QCCD comparator architecture.
//! * [`scale`] — the modular ELU-array architecture (§VII).
//! * [`report`] — table/CSV helpers used by the experiment harnesses.
//!
//! # Quickstart
//!
//! One engine, any backend. Configure a session once, run circuits
//! through it, read one report shape:
//!
//! ```
//! use tilt::prelude::*;
//!
//! // A 16-qubit GHZ state on a 16-ion tape with an 8-laser head.
//! let mut ghz = Circuit::new(16);
//! ghz.h(Qubit(0));
//! for i in 1..16 {
//!     ghz.cnot(Qubit(i - 1), Qubit(i));
//! }
//! let engine = Engine::builder()
//!     .backend(Backend::Tilt(DeviceSpec::new(16, 8)?))
//!     .build()?;
//! let report = engine.run(&ghz)?;
//! assert!(report.success > 0.5);
//! assert!(report.compile.move_count >= 1);
//!
//! // The same session shape targets the QCCD comparator:
//! let qccd = Engine::builder()
//!     .backend(Backend::Qccd(QccdSpec::for_qubits(16, 5)?))
//!     .build()?;
//! assert!(qccd.run(&ghz)?.success > 0.0);
//! # Ok::<(), tilt::engine::TiltError>(())
//! ```
//!
//! Batches amortize session setup, running each circuit in turn on the
//! calling thread:
//!
//! ```
//! use tilt::prelude::*;
//!
//! let engine = Engine::builder()
//!     .backend(Backend::Tilt(DeviceSpec::new(8, 4)?))
//!     .build()?;
//! let circuits: Vec<Circuit> = (1..8)
//!     .map(|k| {
//!         let mut c = Circuit::new(8);
//!         c.h(Qubit(0)).cnot(Qubit(0), Qubit(k));
//!         c
//!     })
//!     .collect();
//! let reports = engine.run_batch(circuits);
//! assert!(reports.iter().all(|r| r.is_ok()));
//! # Ok::<(), tilt::engine::TiltError>(())
//! ```
//!
//! Million-gate circuits don't fit that shape — holding the input, the
//! routed circuit, and the compiled program at once is three
//! O(circuit) buffers. [`Engine::run_streaming`](engine::Engine::run_streaming)
//! instead pulls gates from an iterator (or
//! [`run_streaming_qasm`](engine::Engine::run_streaming_qasm) from any
//! reader), compiles them through a windowed pipeline with carry-over
//! router/scheduler state, and hands scheduled-op increments to a sink:
//! peak memory is O(window), and the op stream and estimates are
//! **bit-identical** to the monolithic run at every window size:
//!
//! ```
//! use tilt::benchmarks::stream::qft_stream;
//! use tilt::engine::{NullSink, DEFAULT_STREAM_WINDOW};
//! use tilt::prelude::*;
//!
//! let engine = Engine::builder()
//!     .backend(Backend::Tilt(DeviceSpec::new(16, 8)?))
//!     .build()?;
//! // Gates are generated lazily — no Circuit is ever materialized.
//! let outcome =
//!     engine.run_streaming(16, qft_stream(16), DEFAULT_STREAM_WINDOW, &mut NullSink)?;
//! assert_eq!(outcome.input_gate_count, tilt::benchmarks::qft::qft(16).len());
//! assert!(outcome.success > 0.0);
//! # Ok::<(), tilt::engine::TiltError>(())
//! ```
//!
//! From the command line, `tilt run --stream` does the same over a QASM
//! file — here a million-gate circuit written by the streaming
//! generator example, compiled comfortably inside a 256 MB address
//! space (the monolithic path needs >640 MB on this workload):
//!
//! ```text
//! $ cargo run --release -p tilt-benchmarks --example stream_qasm -- rcs 8 8 11000 11 > big.qasm
//! $ wc -l big.qasm
//! 1012072 big.qasm
//! $ ulimit -v 262144 && tilt run big.qasm --stream --head 16
//! streamed `big.qasm`: 1012064 input gates in 16 increments (window 65536)
//! device: 64 ions, head 16
//! ...
//! ```
//!
//! For service traffic there is no need to link the library at all:
//! `tilt serve` runs a persistent JSON-lines compile service over the
//! same session API — one request per line in (QASM payload plus
//! optional backend/router/noise overrides), one response per line out,
//! in submission order, each answered before the next is read, with
//! admission control and per-request error isolation:
//!
//! ```text
//! $ printf '%s\n' \
//!     '{"id":1,"qasm":"qreg q[8];\nh q[0];\ncx q[0], q[7];\n"}' \
//!     '{"op":"shutdown"}' | tilt serve --ions 8 --head 4
//! {"id":1,"ok":true,"backend":"tilt","swaps":2,...,"exec_time_us":1007}
//! {"ok":true,"shutdown":true}
//! ```
//!
//! The service is **content-addressed**: every compile records its wire
//! view under `(circuit digest, config fingerprint)` in a shared
//! [`CompileCache`](engine::CompileCache), and a repeated request is
//! answered from it byte-identically without recompiling.
//! `--cache-dir` makes the cache survive restarts (snapshot entries are
//! digest-verified on reload):
//!
//! ```text
//! $ tilt serve --ions 64 --head 16 --cache-dir /var/cache/tilt
//! ```
//!
//! See `crates/engine/README.md` for the full wire protocol (stats
//! probes, per-request overrides, `{"op":"configure"}` session
//! rebinding, the TCP listener mode) and the cache key model.
//!
//! Compiled artifacts can be **statically verified** against the
//! machine invariants (head coverage, swap-chain caps, mapping
//! bijection, schedule order, comm-slot hygiene):
//! [`EngineBuilder::verify`](engine::EngineBuilder::verify) attaches
//! [`Diagnostic`](engine::Diagnostic)s to the report (or fails the run
//! under `VerifyLevel::Strict`), and `tilt lint` runs the same rule
//! packs from the command line:
//!
//! ```text
//! $ tilt lint circuit.qasm --ions 16 --head 8
//! lint `circuit.qasm`: clean (41 native ops verified)
//! ```
//!
//! `tilt lint --json` emits the diagnostics as a JSON array and the
//! exit status is nonzero on any error-severity finding;
//! `tilt lint --stream` runs every rule over the bounded-memory path
//! and prints the same findings (`--backend scaled` lints the modular
//! backend, either way). See `crates/compiler/README.md` for the
//! per-backend rule taxonomy.
//!
//! The per-pass building blocks (`Compiler`, `estimate_success`,
//! `compile_qccd`, `compile_scaled`, …) remain available for callers
//! that need a single pass in isolation; see `crates/engine/README.md`
//! for the compatibility policy.

pub use tilt_benchmarks as benchmarks;
pub use tilt_circuit as circuit;
pub use tilt_compiler as compiler;
pub use tilt_engine as engine;
pub use tilt_hash as hash;
pub use tilt_qccd as qccd;
pub use tilt_report as report;
pub use tilt_scale as scale;
pub use tilt_sim as sim;
pub use tilt_stabilizer as stabilizer;
pub use tilt_statevec as statevec;

/// Convenience imports for typical usage.
pub mod prelude {
    pub use tilt_benchmarks::paper_suite;
    pub use tilt_circuit::{Circuit, Gate, Qubit};
    pub use tilt_compiler::{CompileOutput, Compiler, DeviceSpec, RouterKind, SchedulerKind};
    pub use tilt_engine::{
        Backend, BackendKind, CompileCache, Diagnostic, Engine, RunReport, Service, Severity,
        TiltError, VerifyLevel,
    };
    pub use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
    pub use tilt_scale::{compile_scaled, estimate_scaled, ScaleSpec};
    pub use tilt_sim::{
        estimate_ideal_success, estimate_success, estimate_success_with_cooling, execution_time_us,
        CoolingPolicy, ExecTimeModel, GateTimeModel, NoiseModel,
    };
}
