//! One pass per backend, behind both in-memory and streamed runs.
//!
//! Each backend's pass opens its compile session over a whole circuit
//! or a gate iterator, and folds every emitted op into the estimators
//! (sympathetic cooling included), into the verifier fold under
//! `.verify(..)`, and into a sink. [`Engine::run`] runs the pass into a
//! collecting sink that rebuilds the [`RunDetail`];
//! [`Engine::run_streaming`] runs it into the caller's [`StreamSink`],
//! so the op streams, `ln_success`, `exec_time_us` and diagnostics of
//! the two are **identical**, and a strict session fails either with
//! the same [`TiltError::Verify`]. A stream keeps nothing: peak memory
//! is O(window) + the scheduler horizon on the tape backends and
//! O(traps + window) on QCCD, whose greedy router needs no look-ahead.
//! QCCD primitives are not [`TiltOp`]s, so a QCCD stream delivers no
//! increments and [`StreamOutcome::increments`] stays 0.
//!
//! Restrictions of a stream (each returns an error, see the respective
//! feature for why it is whole-circuit by nature):
//!
//! * logical-circuit simulation (`.simulate(..)`) replays the *input*
//!   circuit, which a stream does not retain ([`TiltError::Config`]);
//! * the `InteractionChain` initial mapping scans the whole circuit's
//!   interaction graph (rejected by the compiler as
//!   `StreamingUnsupported`); a whole circuit is placed by it in a
//!   pre-pass, per ELU on the scaled backend.
//!
//! The compile cache is bypassed: its key is the digest of a complete
//! circuit.

use crate::error::TiltError;
use crate::report::{BackendKind, CompileStats, RunDetail};
use crate::verify::{self, VerifyLevel};
use crate::{Backend, Engine};
use std::io::BufRead;
use std::time::{Duration, Instant};
use tilt_circuit::qasm::QasmStream;
use tilt_circuit::{validate, validate_gate, Circuit, Gate};
use tilt_compiler::decompose::decompose_gate;
use tilt_compiler::verify::{Diagnostic, TiltVerifier};
use tilt_compiler::{
    CollectSink, CompileOutput, DeviceSpec, ProgramSink, StreamSummary, StreamingCompiler, TiltOp,
};
use tilt_qccd::verify::QccdVerifier;
use tilt_qccd::{QccdError, QccdEstimator, QccdOp, QccdProgram, QccdRouter, QccdSpec};
use tilt_scale::{
    Partition, ScaleSpec, ScaledProgram, ScaledSink, ScaledStreamingCompiler, ScaledVerifier,
};
use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};

/// Default streaming window (input gates buffered per flush): large
/// enough that per-window overhead vanishes, small enough that peak
/// memory stays tens of megabytes below any million-gate circuit.
pub const DEFAULT_STREAM_WINDOW: usize = 65_536;

/// Receives routed gates and scheduled-op increments as streaming
/// windows complete: the ELU array's sink, whose `shard` argument is the
/// ELU index on the scaled backend and always 0 on the monolithic TILT
/// backend. Concatenating every increment of one shard reproduces that
/// shard's in-memory program exactly; any `FnMut(usize, &[TiltOp])` is
/// one.
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
        mut gates: impl Iterator<Item = Result<Gate, TiltError>>,
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
        let run = Run {
            n_qubits,
            whole: None,
            gates: &mut gates,
            window,
        };
        Ok(self.pass(run, &mut Out::Stream(sink))?.0)
    }

    /// Runs `run` through the session backend's pass into `out`.
    /// Returns the outcome and, when `out` collects, the rebuilt
    /// [`RunDetail`].
    pub(crate) fn pass(&self, run: Run<'_>, out: &mut Out<'_>) -> Result<Ran, TiltError> {
        #[cfg(any(test, feature = "faults"))]
        crate::faults::before_compile(run.n_qubits);
        match self.backend {
            Backend::Tilt(spec) => self.tilt_pass(spec, run, out),
            Backend::Scaled(spec) => self.scaled_pass(spec, run, out),
            Backend::Qccd(spec) => self.qccd_pass(spec, run, out),
        }
    }

    fn tilt_pass(
        &self,
        spec: DeviceSpec,
        run: Run<'_>,
        out: &mut Out<'_>,
    ) -> Result<Ran, TiltError> {
        let compiler = self
            .compiler
            .as_ref()
            .expect("Tilt backend always carries a compiler");
        let mut session = match run.whole {
            Some(c) => StreamingCompiler::for_circuit(compiler, c)?,
            None => StreamingCompiler::new(compiler, run.n_qubits, run.window)?,
        };
        if let (Out::Collect { shards, .. }, Some(c)) = (&mut *out, run.whole) {
            shards.push(CollectSink::for_input(c.len()));
        }
        let (n_ions, cap) = (spec.n_ions(), self.router.max_swap_span(spec));
        let mut adapter = TiltAdapter {
            success: SuccessAccumulator::with_cooling(
                n_ions,
                &self.noise,
                &self.gate_times,
                &self.cooling,
            ),
            exec: ExecTimeAccumulator::new(n_ions, &self.gate_times, &self.exec_time),
            verifier: (self.verify != VerifyLevel::Off)
                .then(|| TiltVerifier::new(spec, cap, session.initial_mapping().clone())),
            sink: out,
        };
        for &g in run.whole.map_or(&[][..], Circuit::gates) {
            session.push(g, &mut adapter)?;
        }
        for g in run.gates {
            session.push(g?, &mut adapter)?;
        }
        let summary = session.finish(&mut adapter);
        let found = adapter.verifier.map(|v| v.finish(&summary.final_mapping));
        let success = adapter.success.finish_cooled();
        let outcome = StreamOutcome {
            backend: BackendKind::Tilt,
            compile: CompileStats::tilt(&summary.report),
            ln_success: success.report.ln_success,
            success: success.report.success,
            exec_time_us: adapter.exec.finish() + success.cooling_time_us,
            increments: summary.increments,
            input_gate_count: summary.input_gate_count,
            diagnostics: verify::enforce(self.verify, found)?,
        };
        let detail = (adapter.sink.output(0, spec, summary))
            .map(|output| RunDetail::Tilt { output, success });
        Ok((outcome, detail))
    }

    fn scaled_pass(
        &self,
        spec: ScaleSpec,
        run: Run<'_>,
        out: &mut Out<'_>,
    ) -> Result<Ran, TiltError> {
        let (noise, times) = (&self.noise, &self.gate_times);
        let mut session = match run.whole {
            Some(c) => ScaledStreamingCompiler::for_circuit(&spec, c, noise, times)?,
            None => ScaledStreamingCompiler::new(&spec, run.n_qubits, run.window, noise, times)?,
        };
        if let Out::Collect { shards, .. } = &mut *out {
            shards.resize_with(session.initial_mappings().count(), CollectSink::default);
        }
        let mut adapter = ScaledAdapter {
            verifier: (self.verify != VerifyLevel::Off)
                .then(|| ScaledVerifier::new(&spec, session.initial_mappings().cloned())),
            sink: out,
        };
        for g in run.gates {
            session.push(g?, &mut adapter)?;
        }
        let summary = session.finish(&mut adapter)?;
        let finals = summary.elu_summaries.iter().map(|elu| &elu.final_mapping);
        let found = adapter
            .verifier
            .map(|v| v.finish(finals, summary.epr_pairs));
        let elu_reports = summary.elu_summaries.iter().map(|elu| &elu.report);
        let outcome = StreamOutcome {
            backend: BackendKind::Scaled,
            compile: CompileStats::scaled(&summary.report, summary.epr_pairs, elu_reports),
            ln_success: summary.report.ln_success,
            success: summary.report.success,
            exec_time_us: summary.report.exec_time_us,
            increments: summary.increments,
            input_gate_count: summary.input_gate_count,
            diagnostics: verify::enforce(self.verify, found)?,
        };
        let device = spec
            .elu_device()
            .expect("a ScaleSpec always describes a valid ELU device");
        let elus = summary.elu_summaries.into_iter().enumerate();
        let outputs: Option<Vec<_>> = elus
            .map(|(e, elu)| adapter.sink.output(e, device, elu))
            .collect();
        let detail = outputs.map(|elu_outputs| RunDetail::Scaled {
            program: ScaledProgram {
                spec,
                partition: Partition::new(&spec, run.n_qubits),
                elu_outputs,
                epr_pairs: summary.epr_pairs,
            },
            report: summary.report,
        });
        Ok((outcome, detail))
    }

    /// The greedy QCCD router has no look-ahead, so each window is
    /// decomposed, routed, and folded into the estimator and verifier
    /// before the next is read.
    fn qccd_pass(&self, spec: QccdSpec, run: Run<'_>, out: &mut Out<'_>) -> Result<Ran, TiltError> {
        // A whole circuit is validated before its width is checked, as
        // on the tape backends.
        if let Some(c) = run.whole {
            validate(c).map_err(QccdError::InvalidCircuit)?;
        }
        let (n_qubits, window) = (run.n_qubits, run.window.max(1));
        let mut router = QccdRouter::new(&spec, n_qubits)?;
        let mut estimator =
            QccdEstimator::new(&spec, &self.noise, &self.gate_times, &self.qccd_params);
        let mut verifier = (self.verify != VerifyLevel::Off).then(|| QccdVerifier::new(&spec));
        let (mut input, mut native) = (Vec::new(), Circuit::new(n_qubits));
        let mut windows = run.whole.map(|c| c.gates().chunks(window));
        let (mut t_decompose, mut t_swap, mut input_gate_count) =
            (Duration::ZERO, Duration::ZERO, 0);
        loop {
            // A whole circuit is windowed in place; a stream is buffered
            // and validated gate by gate.
            let gates: &[Gate] = if let Some(windows) = &mut windows {
                let Some(gates) = windows.next() else { break };
                gates
            } else {
                input.clear();
                for g in (&mut *run.gates).take(window) {
                    let g = g?;
                    let index = input_gate_count + input.len();
                    validate_gate(&g, index, n_qubits).map_err(QccdError::InvalidCircuit)?;
                    input.push(g);
                }
                if input.is_empty() {
                    break;
                }
                &input
            };
            input_gate_count += gates.len();
            // Lower to the native set first so gate counts are comparable
            // with the TILT backend (the Fig. 8 methodology).
            let t0 = Instant::now();
            native.reset(n_qubits);
            for g in gates {
                decompose_gate(&mut native, g);
            }
            let t1 = Instant::now();
            for g in native.gates() {
                router.route(g)?;
            }
            (t_decompose, t_swap) = (t_decompose + (t1 - t0), t_swap + t1.elapsed());
            let ops = router.drain();
            estimator.push(ops.as_slice());
            if let Some(v) = &mut verifier {
                v.push(ops.as_slice());
            }
            if let Out::Collect { qccd, .. } = out {
                qccd.extend_from_slice(ops.as_slice());
            }
        }
        let report = estimator.finish();
        let compile = CompileStats {
            move_count: report.transports,
            move_distance: report.shuttle_segments,
            native_gate_count: report.two_qubit_gates
                + report.single_qubit_gates
                + report.measurements,
            native_two_qubit_count: report.two_qubit_gates,
            t_decompose,
            t_swap,
            ..CompileStats::default()
        };
        let outcome = StreamOutcome {
            backend: BackendKind::Qccd,
            compile,
            ln_success: report.ln_success,
            success: report.success,
            exec_time_us: report.exec_time_us,
            increments: 0,
            input_gate_count,
            diagnostics: verify::enforce(self.verify, verifier.map(QccdVerifier::finish))?,
        };
        let detail = match out {
            Out::Collect { qccd, .. } => Some(RunDetail::Qccd {
                program: QccdProgram::new(spec, std::mem::take(qccd)),
                report,
            }),
            Out::Stream(_) => None,
        };
        Ok((outcome, detail))
    }
}

/// What a pass returns: the outcome and, for a collecting sink, the
/// rebuilt [`RunDetail`].
pub(crate) type Ran = (StreamOutcome, Option<RunDetail>);

/// The gates of one run through a backend's pass.
pub(crate) struct Run<'a> {
    pub(crate) n_qubits: usize,
    /// The whole circuit of an in-memory run: the compile session opens
    /// over all of it, so whole-circuit placement applies.
    pub(crate) whole: Option<&'a Circuit>,
    /// A stream's gates; none for a whole circuit.
    pub(crate) gates: &'a mut dyn Iterator<Item = Result<Gate, TiltError>>,
    /// Input gates per flush.
    pub(crate) window: usize,
}

/// Where a pass's ops go: a stream's caller sink, or the collection an
/// in-memory run rebuilds its [`RunDetail`] from (each shard's ops and
/// routed gates, or the QCCD primitives).
pub(crate) enum Out<'a> {
    Stream(&'a mut dyn StreamSink),
    Collect {
        shards: Vec<CollectSink>,
        qccd: Vec<QccdOp>,
    },
}

impl Out<'_> {
    /// Shard `shard`'s compile output on `spec`, from the summary its
    /// session ended with; `None` on a stream.
    fn output(
        &mut self,
        shard: usize,
        spec: DeviceSpec,
        summary: StreamSummary,
    ) -> Option<CompileOutput> {
        let Out::Collect { shards, .. } = self else {
            return None;
        };
        Some(std::mem::take(&mut shards[shard]).into_output(spec, summary))
    }
}

impl ScaledSink for Out<'_> {
    fn emit(&mut self, shard: usize, ops: &[TiltOp]) {
        match self {
            Out::Stream(sink) => sink.emit(shard, ops),
            Out::Collect { shards, .. } => shards[shard].emit(ops),
        }
    }

    fn routed(&mut self, shard: usize, gates: &[Gate]) {
        match self {
            Out::Stream(sink) => sink.routed(shard, gates),
            Out::Collect { shards, .. } => shards[shard].routed(gates),
        }
    }
}

/// A TILT pass's program sink: the estimator folds, the verifier fold
/// when the session verifies, then the pass's sink.
struct TiltAdapter<'a, 'b> {
    success: SuccessAccumulator,
    exec: ExecTimeAccumulator,
    verifier: Option<TiltVerifier>,
    sink: &'a mut Out<'b>,
}

impl ProgramSink for TiltAdapter<'_, '_> {
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
        self.sink.routed(0, gates);
    }
}

/// A scaled pass's sink: the verifier fold when the session verifies,
/// then the pass's sink.
struct ScaledAdapter<'a, 'b> {
    verifier: Option<ScaledVerifier>,
    sink: &'a mut Out<'b>,
}

impl ScaledSink for ScaledAdapter<'_, '_> {
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
        self.sink.routed(elu, gates);
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
    fn qccd_streaming_matches_the_in_memory_run() {
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
                // The workload measures and reuses data qubits, which
                // no backend reports: strict passes both runs alike.
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
