//! Bounded-memory streaming runs: compile and estimate a gate stream
//! without ever materializing the circuit or the compiled program.
//!
//! [`Engine::run`] and [`Engine::run_streaming`] run the same pass
//! driver, [`StreamingCompiler`](tilt_compiler::StreamingCompiler)
//! (sharded per-ELU on the scaled backend), and the same estimator
//! folds. [`Engine::run`] keeps the input circuit, the routed circuit
//! and the scheduled [`TiltProgram`](tilt_compiler::TiltProgram) for
//! inspection. [`Engine::run_streaming`] instead pulls gates from an
//! iterator, folds every emitted op straight into the estimators
//! (sympathetic cooling included) and, under `.verify(..)`, into the
//! verifier folds, and hands scheduled-op increments to a
//! [`StreamSink`]. Peak memory is O(window) + the scheduler horizon;
//! the resulting op stream, `ln_success`, `exec_time_us` and
//! diagnostics are **identical** to [`Engine::run`], and a strict
//! session fails a stream with the same [`TiltError::Verify`].
//!
//! Restrictions (each returns an error, see the respective feature for
//! why it is whole-circuit by nature):
//!
//! * logical-circuit simulation (`.simulate(..)`) replays the *input*
//!   circuit, which a stream does not retain ([`TiltError::Config`]);
//! * the `InteractionChain` initial mapping scans the whole circuit's
//!   interaction graph (rejected by the compiler as
//!   `StreamingUnsupported`).
//!
//! The compile cache is bypassed: its key is the digest of a complete
//! circuit. The QCCD backend has no streaming compiler — it falls back
//! to buffering the stream into a circuit and running the monolithic
//! path (documented O(circuit) memory), so cross-backend comparisons
//! can still share one entry point.

use crate::error::TiltError;
use crate::report::{BackendKind, CompileStats};
use crate::verify::{self, VerifyLevel};
use crate::{Backend, Engine};
use std::io::BufRead;
use tilt_circuit::qasm::QasmStream;
use tilt_circuit::{Circuit, Gate};
use tilt_compiler::verify::{Diagnostic, TiltVerifier};
use tilt_compiler::{ProgramSink, StreamingCompiler, TiltOp};
use tilt_scale::{ScaledSink, ScaledStreamingCompiler, ScaledVerifier};
use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};

/// Default streaming window (input gates buffered per flush): large
/// enough that per-window overhead vanishes, small enough that peak
/// memory stays tens of megabytes below any million-gate circuit.
pub const DEFAULT_STREAM_WINDOW: usize = 65_536;

/// Receives scheduled-op increments as streaming windows complete: the
/// ELU array's sink, whose `shard` argument is the ELU index on the
/// scaled backend and always 0 on the monolithic TILT backend (an
/// engine stream delivers no routed gates). Concatenating every
/// increment of one shard reproduces that shard's monolithic program
/// exactly; any `FnMut(usize, &[TiltOp])` is one.
pub use tilt_scale::ScaledSink as StreamSink;

/// A sink that discards the op stream — for callers that only want the
/// final [`StreamOutcome`] statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ScaledSink for NullSink {
    fn emit(&mut self, _shard: usize, _ops: &[TiltOp]) {}
}

/// What a streaming run produced: the [`RunReport`](crate::RunReport)
/// scalars, without the backend artifacts a stream never materializes.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Which backend ran.
    pub backend: BackendKind,
    /// Normalized compile statistics — field-identical to the
    /// in-memory run's [`CompileStats`] (timings excepted).
    pub compile: CompileStats,
    /// Natural log of the success probability (bit-identical to the
    /// in-memory estimate).
    pub ln_success: f64,
    /// Success probability.
    pub success: f64,
    /// Execution-time estimate in µs (bit-identical to the in-memory
    /// estimate).
    pub exec_time_us: f64,
    /// Non-empty increments delivered to the sink.
    pub increments: usize,
    /// Program gates consumed from the input stream.
    pub input_gate_count: usize,
    /// Verifier findings, as [`RunReport::diagnostics`](crate::RunReport).
    pub diagnostics: Vec<Diagnostic>,
}

impl StreamOutcome {
    /// Base-10 log of the success probability.
    pub fn log10_success(&self) -> f64 {
        self.ln_success / std::f64::consts::LN_10
    }
}

impl Engine {
    /// Compiles and estimates a gate stream in O(window) memory,
    /// delivering scheduled-op increments to `sink`.
    ///
    /// Decision-identical to [`Engine::run`] on the same gates: the
    /// concatenated increments, `ln_success`, and `exec_time_us` match
    /// the in-memory run bit for bit, and the diagnostics exactly, at
    /// every window size.
    ///
    /// # Errors
    ///
    /// Backend compile errors; [`TiltError::Config`] for session
    /// features that are whole-circuit by nature (see the module docs);
    /// [`TiltError::Verify`] when a strict session finds an error.
    ///
    /// # Example
    ///
    /// ```
    /// use tilt_circuit::{Circuit, Qubit};
    /// use tilt_compiler::DeviceSpec;
    /// use tilt_engine::stream::NullSink;
    /// use tilt_engine::Engine;
    ///
    /// let mut c = Circuit::new(16);
    /// c.h(Qubit(0));
    /// for i in 1..16 {
    ///     c.cnot(Qubit(i - 1), Qubit(i));
    /// }
    /// let engine = Engine::tilt(DeviceSpec::new(16, 8)?);
    /// let outcome =
    ///     engine.run_streaming(16, c.gates().iter().copied(), 64, &mut NullSink)?;
    /// assert_eq!(outcome.ln_success, engine.run(&c)?.ln_success);
    /// # Ok::<(), tilt_engine::TiltError>(())
    /// ```
    pub fn run_streaming<I: IntoIterator<Item = Gate>>(
        &self,
        n_qubits: usize,
        gates: I,
        window: usize,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamOutcome, TiltError> {
        self.stream_results(n_qubits, gates.into_iter().map(Ok), window, sink)
    }

    /// [`Engine::run_streaming`] over an OpenQASM 2.0 source, pulling
    /// statements through [`QasmStream`] so the text is never held in
    /// memory either. The `qreg` declaration must precede the first
    /// gate.
    ///
    /// # Errors
    ///
    /// [`TiltError::Stream`] for QASM parse or reader I/O failures, plus
    /// everything [`Engine::run_streaming`] can return.
    pub fn run_streaming_qasm<R: BufRead>(
        &self,
        reader: R,
        window: usize,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamOutcome, TiltError> {
        let mut qasm = QasmStream::new(reader);
        let n_qubits = qasm.require_n_qubits().map_err(|e| TiltError::Stream {
            reason: e.to_string(),
        })?;
        self.stream_results(
            n_qubits,
            qasm.map(|r| {
                r.map_err(|e| TiltError::Stream {
                    reason: e.to_string(),
                })
            }),
            window,
            sink,
        )
    }

    fn stream_results(
        &self,
        n_qubits: usize,
        gates: impl Iterator<Item = Result<Gate, TiltError>>,
        window: usize,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamOutcome, TiltError> {
        if self.sim.is_some() {
            return Err(TiltError::Config {
                reason: "streaming runs cannot simulate the logical circuit \
                         (the simulator replays the whole input); drop .simulate(..)"
                    .into(),
            });
        }
        #[cfg(any(test, feature = "faults"))]
        crate::faults::before_compile(n_qubits);
        match &self.backend {
            Backend::Tilt(spec) => self.stream_tilt(spec.n_ions(), n_qubits, gates, window, sink),
            Backend::Scaled(spec) => self.stream_scaled(*spec, n_qubits, gates, window, sink),
            Backend::Qccd(_) => self.stream_qccd_buffered(n_qubits, gates),
        }
    }

    fn stream_tilt(
        &self,
        n_ions: usize,
        n_qubits: usize,
        gates: impl Iterator<Item = Result<Gate, TiltError>>,
        window: usize,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamOutcome, TiltError> {
        let compiler = self
            .compiler
            .as_ref()
            .expect("Tilt backend always carries a compiler");
        let mut streaming = StreamingCompiler::new(compiler, n_qubits, window)?;
        let spec = compiler.spec();
        let mut adapter = TiltAdapter {
            success: SuccessAccumulator::with_cooling(
                n_ions,
                &self.noise,
                &self.gate_times,
                &self.cooling,
            ),
            exec: ExecTimeAccumulator::new(n_ions, &self.gate_times, &self.exec_time),
            verifier: (self.verify != VerifyLevel::Off).then(|| {
                TiltVerifier::new(
                    spec,
                    self.router.max_swap_span(spec),
                    streaming.initial_mapping().clone(),
                )
            }),
            sink,
        };
        for g in gates {
            streaming.push(g?, &mut adapter)?;
        }
        let summary = streaming.finish(&mut adapter);
        let diagnostics = match adapter.verifier {
            Some(v) => verify::enforce(self.verify, v.finish(&summary.final_mapping))?,
            None => Vec::new(),
        };
        let (s, exec) = (adapter.success.finish_cooled(), adapter.exec);
        Ok(StreamOutcome {
            backend: BackendKind::Tilt,
            compile: CompileStats::tilt(&summary.report),
            ln_success: s.report.ln_success,
            success: s.report.success,
            exec_time_us: exec.finish() + s.cooling_time_us,
            increments: summary.increments,
            input_gate_count: summary.input_gate_count,
            diagnostics,
        })
    }

    fn stream_scaled(
        &self,
        spec: tilt_scale::ScaleSpec,
        n_qubits: usize,
        gates: impl Iterator<Item = Result<Gate, TiltError>>,
        window: usize,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamOutcome, TiltError> {
        let mut session =
            ScaledStreamingCompiler::new(&spec, n_qubits, window, &self.noise, &self.gate_times)?;
        let mut adapter = ScaledAdapter {
            verifier: (self.verify != VerifyLevel::Off)
                .then(|| ScaledVerifier::new(&spec, session.initial_mappings().cloned())),
            sink,
        };
        for g in gates {
            session.push(g?, &mut adapter)?;
        }
        let summary = session.finish(&mut adapter)?;
        let diagnostics = match adapter.verifier {
            Some(v) => verify::enforce(
                self.verify,
                v.finish(
                    summary.elu_summaries.iter().map(|elu| &elu.final_mapping),
                    summary.epr_pairs,
                ),
            )?,
            None => Vec::new(),
        };
        let compile = CompileStats::scaled(
            &summary.report,
            summary.epr_pairs,
            summary.elu_summaries.iter().map(|elu| &elu.report),
        );
        Ok(StreamOutcome {
            backend: BackendKind::Scaled,
            compile,
            ln_success: summary.report.ln_success,
            success: summary.report.success,
            exec_time_us: summary.report.exec_time_us,
            increments: summary.increments,
            input_gate_count: summary.input_gate_count,
            diagnostics,
        })
    }

    /// QCCD has no streaming compiler: buffer the stream back into a
    /// circuit and run the monolithic path. Memory is O(circuit) here —
    /// the fallback exists so one entry point serves all backends, not
    /// to bound QCCD memory.
    fn stream_qccd_buffered(
        &self,
        n_qubits: usize,
        gates: impl Iterator<Item = Result<Gate, TiltError>>,
    ) -> Result<StreamOutcome, TiltError> {
        let mut circuit = Circuit::new(n_qubits);
        for g in gates {
            circuit.push(g?);
        }
        let input_gate_count = circuit.len();
        let report = self.run(&circuit)?;
        Ok(StreamOutcome {
            backend: report.backend,
            compile: report.compile,
            ln_success: report.ln_success,
            success: report.success,
            exec_time_us: report.exec_time_us,
            increments: 0,
            input_gate_count,
            diagnostics: report.diagnostics,
        })
    }
}

/// A TILT stream's program sink: the estimator folds, the verifier fold
/// when the session verifies, then the caller's sink.
struct TiltAdapter<'a> {
    success: SuccessAccumulator,
    exec: ExecTimeAccumulator,
    verifier: Option<TiltVerifier>,
    sink: &'a mut dyn StreamSink,
}

impl ProgramSink for TiltAdapter<'_> {
    fn emit(&mut self, ops: &[TiltOp]) {
        for op in ops {
            self.success.push(op);
            self.exec.push(op);
        }
        if let Some(v) = &mut self.verifier {
            v.emit(ops);
        }
        self.sink.emit(0, ops);
    }

    fn routed(&mut self, gates: &[Gate]) {
        if let Some(v) = &mut self.verifier {
            v.routed(gates);
        }
    }
}

/// A scaled stream's sink: the verifier fold when the session
/// verifies, then the caller's sink.
struct ScaledAdapter<'a> {
    verifier: Option<ScaledVerifier>,
    sink: &'a mut dyn StreamSink,
}

impl ScaledSink for ScaledAdapter<'_> {
    fn emit(&mut self, elu: usize, ops: &[TiltOp]) {
        if let Some(v) = &mut self.verifier {
            v.emit(elu, ops);
        }
        self.sink.emit(elu, ops);
    }

    fn routed(&mut self, elu: usize, gates: &[Gate]) {
        if let Some(v) = &mut self.verifier {
            v.routed(elu, gates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimMethod;
    use tilt_circuit::Qubit;
    use tilt_compiler::DeviceSpec;
    use tilt_qccd::QccdSpec;
    use tilt_scale::ScaleSpec;
    use tilt_sim::CoolingPolicy;

    fn workload(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..gates {
            let a = Qubit((rng() as usize) % n);
            let b = Qubit((rng() as usize) % n);
            match rng() % 12 {
                0 => {
                    c.barrier();
                }
                1 => {
                    c.measure(a);
                }
                2 | 3 => {
                    c.h(a);
                }
                4 => {
                    c.t(a);
                }
                _ if a != b => {
                    c.cnot(a, b);
                }
                _ => {
                    c.rz(a, 0.37);
                }
            }
        }
        c
    }

    #[test]
    fn tilt_streaming_matches_monolithic_run() {
        let engine = Engine::tilt(DeviceSpec::new(16, 4).unwrap());
        let c = workload(16, 600, 9);
        let mono = engine.run(&c).unwrap();
        for window in [1usize, 64, 1024, usize::MAX] {
            let mut ops = Vec::new();
            let mut sink = |shard: usize, inc: &[TiltOp]| {
                assert_eq!(shard, 0);
                ops.extend_from_slice(inc);
            };
            let out = engine
                .run_streaming(16, c.gates().iter().copied(), window, &mut sink)
                .unwrap();
            assert_eq!(ops, mono.tilt_program().unwrap().ops(), "window {window}");
            assert_eq!(out.ln_success, mono.ln_success);
            assert_eq!(out.success, mono.success);
            assert_eq!(out.exec_time_us, mono.exec_time_us);
            assert_eq!(out.compile.swap_count, mono.compile.swap_count);
            assert_eq!(out.compile.move_count, mono.compile.move_count);
            assert_eq!(out.compile.move_distance, mono.compile.move_distance);
            assert_eq!(
                out.compile.native_gate_count,
                mono.compile.native_gate_count
            );
            assert!(out.increments >= 1);
            assert_eq!(out.input_gate_count, c.len());
        }
    }

    #[test]
    fn scaled_streaming_matches_monolithic_run() {
        let engine = Engine::scaled(ScaleSpec::new(10, 4).unwrap());
        let c = workload(24, 500, 21);
        let mono = engine.run(&c).unwrap();
        for window in [64usize, usize::MAX] {
            let out = engine
                .run_streaming(24, c.gates().iter().copied(), window, &mut NullSink)
                .unwrap();
            assert_eq!(out.ln_success, mono.ln_success, "window {window}");
            assert_eq!(out.exec_time_us, mono.exec_time_us);
            assert_eq!(
                out.compile,
                CompileStats {
                    t_decompose: out.compile.t_decompose,
                    t_swap: out.compile.t_swap,
                    t_move: out.compile.t_move,
                    ..mono.compile
                }
            );
        }
    }

    #[test]
    fn qccd_streaming_falls_back_to_buffered_run() {
        let engine = Engine::qccd(QccdSpec::for_qubits(16, 5).unwrap());
        let c = workload(16, 200, 5);
        let mono = engine.run(&c).unwrap();
        let out = engine
            .run_streaming(16, c.gates().iter().copied(), 64, &mut NullSink)
            .unwrap();
        assert_eq!(out.ln_success, mono.ln_success);
        assert_eq!(out.exec_time_us, mono.exec_time_us);
        assert_eq!(out.increments, 0, "QCCD emits no TILT ops");
    }

    #[test]
    fn qasm_streaming_matches_gate_streaming() {
        let engine = Engine::tilt(DeviceSpec::new(12, 4).unwrap());
        let c = workload(12, 300, 13);
        let text = tilt_circuit::qasm::to_qasm(&c);
        let mut ops_qasm = Vec::new();
        let out_qasm = engine
            .run_streaming_qasm(text.as_bytes(), 128, &mut |_: usize, inc: &[TiltOp]| {
                ops_qasm.extend_from_slice(inc);
            })
            .unwrap();
        let mut ops_gates = Vec::new();
        let parsed = tilt_circuit::qasm::parse_qasm(&text).unwrap();
        let out_gates = engine
            .run_streaming(
                parsed.n_qubits(),
                parsed.gates().iter().copied(),
                128,
                &mut |_: usize, inc: &[TiltOp]| ops_gates.extend_from_slice(inc),
            )
            .unwrap();
        assert_eq!(ops_qasm, ops_gates);
        assert_eq!(out_qasm.ln_success, out_gates.ln_success);
        assert_eq!(out_qasm.input_gate_count, out_gates.input_gate_count);
    }

    #[test]
    fn qasm_parse_errors_surface_as_stream_errors() {
        let engine = Engine::tilt(DeviceSpec::new(8, 4).unwrap());
        let err = engine
            .run_streaming_qasm(
                "qreg q[8];\nh q[0];\nfrobnicate q[1];\n".as_bytes(),
                64,
                &mut NullSink,
            )
            .unwrap_err();
        assert!(matches!(err, TiltError::Stream { .. }), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn streamed_cooling_is_bit_identical_to_the_in_memory_run() {
        let c = workload(16, 600, 17);
        for policy in [CoolingPolicy::threshold(0.5), CoolingPolicy::periodic(3)] {
            let engine = Engine::builder()
                .backend(Backend::Tilt(DeviceSpec::new(16, 4).unwrap()))
                .cooling(policy)
                .build()
                .unwrap();
            let mono = engine.run(&c).unwrap();
            let rounds = match &mono.detail {
                crate::RunDetail::Tilt { success, .. } => success.cooling_rounds,
                _ => unreachable!("TILT backend"),
            };
            assert!(rounds > 0, "{policy:?} must cool at least once");
            for window in [1usize, 64, usize::MAX] {
                let out = engine
                    .run_streaming(16, c.gates().iter().copied(), window, &mut NullSink)
                    .unwrap();
                assert_eq!(out.ln_success.to_bits(), mono.ln_success.to_bits());
                assert_eq!(out.success.to_bits(), mono.success.to_bits());
                assert_eq!(out.exec_time_us.to_bits(), mono.exec_time_us.to_bits());
            }
        }
    }

    #[test]
    fn whole_circuit_features_are_rejected() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let gates = [Gate::H(Qubit(0))];
        let sim = Engine::builder()
            .backend(Backend::Tilt(spec))
            .simulate(SimMethod::Auto)
            .build()
            .unwrap();
        let err = sim
            .run_streaming(8, gates.iter().copied(), 64, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, TiltError::Config { .. }), "simulate: {err}");
    }

    #[test]
    fn streamed_runs_verify_like_the_in_memory_run() {
        let c = workload(16, 600, 23);
        let backends = [
            Backend::Tilt(DeviceSpec::new(16, 4).unwrap()),
            Backend::Scaled(ScaleSpec::new(10, 4).unwrap()),
            Backend::Qccd(QccdSpec::for_qubits(16, 5).unwrap()),
        ];
        for backend in backends {
            for level in [VerifyLevel::Warn, VerifyLevel::Strict] {
                let engine = Engine::builder()
                    .backend(backend)
                    .verify(level)
                    .build()
                    .unwrap();
                // The workload measures and reuses qubits, which the
                // scaled pack reports: strict fails both runs alike.
                let mono = engine.run(&c).map(|r| r.diagnostics);
                for window in [1usize, 64, usize::MAX] {
                    let out = engine
                        .run_streaming(16, c.gates().iter().copied(), window, &mut NullSink)
                        .map(|o| o.diagnostics);
                    assert_eq!(
                        format!("{out:?}"),
                        format!("{mono:?}"),
                        "{backend:?} {window}"
                    );
                }
            }
        }
    }
}
