//! Sharded streaming compilation: one bounded-memory LinQ session per
//! ELU, fed from a single pass over the input gate stream.
//!
//! [`compile_scaled`](crate::compile_scaled) keeps every ELU's gate
//! stream and compiled program so they can be inspected and verified.
//! [`ScaledStreamingCompiler`] runs the same splitter one input gate at a
//! time, dispatching each ELU's share into that ELU's own
//! [`StreamingCompiler`], folding the emitted ops straight into the
//! estimator folds, and aggregating with the same ELU aggregation as
//! [`estimate_scaled`](crate::estimate_scaled). Peak memory is
//! O(window · ELUs) plus the per-ELU scheduler horizons, independent of
//! circuit length, and the per-ELU op streams plus the final
//! [`ScaleReport`] are bit-identical to the in-memory path.
//!
//! Shard compiles fan out across the work-stealing pool: gates buffer
//! into per-ELU inboxes during the split, and each macro-window the pool
//! advances every shard's pipeline concurrently. Emitted increments are
//! drained to the sink **in ELU order** after each fan-out, so the
//! delivery order is deterministic regardless of pool scheduling.

use crate::program::{aggregate, Splitter};
use crate::spec::{ScaleError, ScaleSpec};
use crate::ScaleReport;
use rayon::prelude::*;
use tilt_circuit::{Circuit, Gate};
use tilt_compiler::pipeline::streaming::StreamSummary;
use tilt_compiler::{CompileError, Mapping, ProgramSink, StreamingCompiler, TiltOp};
use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};
use tilt_sim::{ExecTimeModel, GateTimeModel, NoiseModel};

/// Receives each ELU's scheduled-op increments as its windows complete.
pub trait ScaledSink {
    /// Delivers one non-empty increment of ELU `elu`'s op stream.
    /// Concatenating every increment for a given ELU reproduces that
    /// ELU's monolithic program exactly.
    fn emit(&mut self, elu: usize, ops: &[TiltOp]);

    /// Delivers ELU `elu`'s next batch of routed gates, as
    /// [`ProgramSink::routed`] does. Ignored by default.
    fn routed(&mut self, _elu: usize, _gates: &[Gate]) {}
}

impl<F: FnMut(usize, &[TiltOp])> ScaledSink for F {
    fn emit(&mut self, elu: usize, ops: &[TiltOp]) {
        self(elu, ops);
    }
}

/// What a finished scaled streaming session produced.
#[derive(Clone, Debug)]
pub struct ScaledStreamSummary {
    /// The aggregate estimate — bit-identical to
    /// [`estimate_scaled`](crate::estimate_scaled) over the in-memory
    /// [`ScaledProgram`](crate::ScaledProgram).
    pub report: ScaleReport,
    /// Per-ELU compile summaries, in ELU order.
    pub elu_summaries: Vec<StreamSummary>,
    /// EPR pairs consumed (one per remote two-qubit gate).
    pub epr_pairs: usize,
    /// Non-empty increments delivered to the sink, over all ELUs.
    pub increments: usize,
    /// Program gates consumed from the input stream.
    pub input_gate_count: usize,
}

/// One ELU's slice of the streaming session.
struct Shard {
    /// `None` after [`Shard::finish`] consumes it.
    compiler: Option<StreamingCompiler>,
    /// Gates split to this ELU since the last fan-out.
    inbox: Circuit,
    sink: ShardSink,
    summary: Option<StreamSummary>,
    err: Option<CompileError>,
}

/// Folds a shard's emitted ops into its estimators and its outboxes.
struct ShardSink {
    success: SuccessAccumulator,
    exec: ExecTimeAccumulator,
    /// Routed gates and ops produced during the current fan-out,
    /// awaiting the ordered drain.
    routed: Vec<Gate>,
    outbox: Vec<TiltOp>,
}

impl ProgramSink for ShardSink {
    fn emit(&mut self, ops: &[TiltOp]) {
        for op in ops {
            self.success.push(op);
            self.exec.push(op);
        }
        self.outbox.extend_from_slice(ops);
    }

    fn routed(&mut self, gates: &[Gate]) {
        self.routed.extend_from_slice(gates);
    }
}

impl Shard {
    /// Pushes every inboxed gate through this shard's pipeline. Runs on
    /// a pool worker.
    fn feed(&mut self) {
        if let (Some(compiler), None) = (self.compiler.as_mut(), &self.err) {
            for &g in self.inbox.gates() {
                if let Err(e) = compiler.push(g, &mut self.sink) {
                    self.err = Some(e);
                    break;
                }
            }
        }
        let width = self.inbox.n_qubits();
        self.inbox.reset(width);
    }

    /// [`Shard::feed`] plus the end-of-stream flush; consumes the
    /// pipeline. Runs on a pool worker.
    fn finish(&mut self) {
        self.feed();
        if self.err.is_none() {
            let compiler = self.compiler.take().expect("finish runs once");
            self.summary = Some(compiler.finish(&mut self.sink));
        }
    }
}

/// A bounded-memory replacement for
/// [`compile_scaled`](crate::compile_scaled) +
/// [`estimate_scaled`](crate::estimate_scaled): push program gates one
/// at a time, receive per-ELU op increments through a [`ScaledSink`],
/// and collect the aggregate [`ScaleReport`] at the end.
pub struct ScaledStreamingCompiler {
    spec: ScaleSpec,
    splitter: Splitter,
    shards: Vec<Shard>,
    /// Gates buffered across all inboxes since the last fan-out.
    buffered: usize,
    /// Total buffered gates that trigger a fan-out.
    window: usize,
    increments: usize,
}

impl ScaledStreamingCompiler {
    /// Starts a streaming session for an `n_qubits`-wide input stream on
    /// the ELU array `spec`, fanning a shard advance every `window`
    /// split gates (`usize::MAX` defers all compilation to
    /// [`ScaledStreamingCompiler::finish`]). The per-ELU success/time
    /// estimates fold under `noise` and `times`, exactly as
    /// [`estimate_scaled`](crate::estimate_scaled) would apply them.
    ///
    /// # Errors
    ///
    /// Rejects invalid per-ELU policies, and per-ELU configurations the
    /// streaming pipeline does not support (the `InteractionChain`
    /// initial mapping, which needs the whole circuit).
    pub fn new(
        spec: &ScaleSpec,
        n_qubits: usize,
        window: usize,
        noise: &NoiseModel,
        times: &GateTimeModel,
    ) -> Result<Self, ScaleError> {
        let compiler = spec.elu_compiler()?;
        let mut session = Self::open(spec, n_qubits, window, noise, times);
        for (e, shard) in session.shards.iter_mut().enumerate() {
            let elu = StreamingCompiler::new(&compiler, spec.ions_per_elu(), window);
            shard.compiler = Some(elu.map_err(|err| ScaleError::elu(e, &err))?);
        }
        Ok(session)
    }

    /// A session over the whole of `circuit`, split up front: each ELU
    /// opens over its whole share ([`StreamingCompiler::for_circuit`]),
    /// so whole-circuit placements such as `InteractionChain` apply.
    /// Push nothing more; [`ScaledStreamingCompiler::finish`] compiles.
    ///
    /// # Errors
    ///
    /// As [`compile_scaled`](crate::compile_scaled).
    pub fn for_circuit(
        spec: &ScaleSpec,
        circuit: &Circuit,
        noise: &NoiseModel,
        times: &GateTimeModel,
    ) -> Result<Self, ScaleError> {
        let compiler = spec.elu_compiler()?;
        let mut session = Self::open(spec, circuit.n_qubits(), usize::MAX, noise, times);
        // No pipeline is open yet, and no window fills: the split only
        // fills the inboxes.
        for &g in circuit {
            session.push(g, &mut |_: usize, _: &[TiltOp]| {})?;
        }
        for (e, shard) in session.shards.iter_mut().enumerate() {
            let elu = StreamingCompiler::for_circuit(&compiler, &shard.inbox);
            shard.compiler = Some(elu.map_err(|err| ScaleError::elu(e, &err))?);
        }
        Ok(session)
    }

    /// A session with every ELU's inbox and estimator folds, and no
    /// pipeline opened yet.
    fn open(
        spec: &ScaleSpec,
        n_qubits: usize,
        window: usize,
        noise: &NoiseModel,
        times: &GateTimeModel,
    ) -> Self {
        let splitter = Splitter::new(spec, n_qubits);
        let shards = (0..splitter.partition.n_elus())
            .map(|_| Shard {
                compiler: None,
                inbox: Circuit::new(spec.ions_per_elu()),
                sink: ShardSink {
                    success: SuccessAccumulator::new(spec.ions_per_elu(), noise, times),
                    // `estimate_scaled` uses the default shuttle model for
                    // every ELU; so does the streaming fold.
                    exec: ExecTimeAccumulator::new(
                        spec.ions_per_elu(),
                        times,
                        &ExecTimeModel::default(),
                    ),
                    routed: Vec::new(),
                    outbox: Vec::new(),
                },
                summary: None,
                err: None,
            })
            .collect();
        ScaledStreamingCompiler {
            spec: *spec,
            splitter,
            shards,
            buffered: 0,
            window: window.max(1),
            increments: 0,
        }
    }

    /// Each ELU's starting permutation, in ELU order.
    pub fn initial_mappings(&self) -> impl Iterator<Item = &Mapping> {
        let compilers = self.shards.iter().filter_map(|s| s.compiler.as_ref());
        compilers.map(StreamingCompiler::initial_mapping)
    }

    /// Ingests the next program gate, fanning a shard advance when the
    /// macro-window fills.
    ///
    /// # Errors
    ///
    /// Invalid input gates (out-of-range operands, non-finite angles,
    /// reported with their global stream index) and per-ELU compile
    /// failures.
    pub fn push(&mut self, g: Gate, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        let (shards, buffered) = (&mut self.shards, &mut self.buffered);
        self.splitter.split(&g, |e, gate| {
            shards[e].inbox.push(gate);
            *buffered += 1;
        })?;
        if self.buffered >= self.window {
            self.fan_out(sink)?;
        }
        Ok(())
    }

    /// Advances every shard's pipeline on the pool, then drains emitted
    /// increments to `sink` in ELU order.
    fn fan_out(&mut self, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        self.shards.par_chunks_mut(1).for_each(|chunk| {
            chunk[0].feed();
        });
        self.buffered = 0;
        self.drain(sink)
    }

    /// Ordered outbox drain + first-error check (ELU order, so the
    /// reported error is deterministic regardless of pool scheduling).
    fn drain(&mut self, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        for (e, shard) in self.shards.iter_mut().enumerate() {
            if !shard.sink.routed.is_empty() {
                sink.routed(e, &shard.sink.routed);
                shard.sink.routed.clear();
            }
            if !shard.sink.outbox.is_empty() {
                sink.emit(e, &shard.sink.outbox);
                self.increments += 1;
                shard.sink.outbox.clear();
            }
            if let Some(err) = &shard.err {
                return Err(ScaleError::elu(e, err));
            }
        }
        Ok(())
    }

    /// Flushes every shard to end-of-stream and aggregates the estimate.
    ///
    /// # Errors
    ///
    /// Per-ELU compile failures surfaced by the final flush.
    pub fn finish(mut self, sink: &mut dyn ScaledSink) -> Result<ScaledStreamSummary, ScaleError> {
        self.shards.par_chunks_mut(1).for_each(|chunk| {
            chunk[0].finish();
        });
        self.drain(sink)?;

        let report = aggregate(
            &self.spec,
            self.splitter.epr_pairs,
            self.shards.iter().map(|shard| {
                let summary = shard.summary.as_ref().expect("finish ran on every shard");
                (
                    shard.sink.success.finish().ln_success,
                    shard.sink.exec.finish(),
                    &summary.report,
                )
            }),
        );
        Ok(ScaledStreamSummary {
            report,
            elu_summaries: self
                .shards
                .iter_mut()
                .filter_map(|shard| shard.summary.take())
                .collect(),
            epr_pairs: self.splitter.epr_pairs,
            increments: self.increments,
            input_gate_count: self.splitter.input_gate_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_scaled, estimate_scaled};
    use tilt_benchmarks::qaoa::qaoa_maxcut;
    use tilt_circuit::Qubit;

    fn collect_streams(
        spec: &ScaleSpec,
        c: &Circuit,
        window: usize,
    ) -> (Vec<Vec<TiltOp>>, ScaledStreamSummary) {
        let n_elus = spec.elus_for(c.n_qubits());
        let mut streams: Vec<Vec<TiltOp>> = vec![Vec::new(); n_elus];
        let mut sink = |elu: usize, ops: &[TiltOp]| streams[elu].extend_from_slice(ops);
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let mut session =
            ScaledStreamingCompiler::new(spec, c.n_qubits(), window, &noise, &times).unwrap();
        for g in c.gates() {
            session.push(*g, &mut sink).unwrap();
        }
        let summary = session.finish(&mut sink).unwrap();
        (streams, summary)
    }

    #[test]
    fn sharded_stream_matches_monolithic_scaled_compile() {
        let circuit = qaoa_maxcut(32, 2, 5);
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mono = compile_scaled(&circuit, &spec).unwrap();
        let mono_report = estimate_scaled(&mono, &NoiseModel::default(), &GateTimeModel::default());
        for window in [1usize, 64, 1024, usize::MAX] {
            let (streams, summary) = collect_streams(&spec, &circuit, window);
            assert_eq!(streams.len(), mono.elu_outputs.len());
            for (e, out) in mono.elu_outputs.iter().enumerate() {
                assert_eq!(streams[e], out.program.ops(), "ELU {e} window {window}");
                let (sr, mr) = (&summary.elu_summaries[e].report, &out.report);
                assert_eq!(sr.swap_count, mr.swap_count);
                assert_eq!(sr.move_count, mr.move_count);
                assert_eq!(sr.move_distance_ions, mr.move_distance_ions);
                assert_eq!(sr.native_gate_count, mr.native_gate_count);
            }
            assert_eq!(summary.epr_pairs, mono.epr_pairs);
            assert_eq!(summary.report, mono_report, "window {window}");
            assert_eq!(summary.input_gate_count, circuit.len());
            assert!(summary.increments >= 1);
        }
    }

    #[test]
    fn comm_slot_recycling_matches_monolithic() {
        // Four boundary crossings over 2 comm slots: both slots recycle,
        // so the streamed splitter must emit the same resets.
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.cnot(Qubit(7), Qubit(8));
        }
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mono = compile_scaled(&c, &spec).unwrap();
        let (streams, summary) = collect_streams(&spec, &c, 3);
        assert_eq!(summary.epr_pairs, 4);
        for (e, out) in mono.elu_outputs.iter().enumerate() {
            assert_eq!(streams[e], out.program.ops(), "ELU {e}");
        }
    }

    #[test]
    fn invalid_input_gate_is_rejected_with_stream_index() {
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mut session = ScaledStreamingCompiler::new(
            &spec,
            16,
            8,
            &NoiseModel::default(),
            &GateTimeModel::default(),
        )
        .unwrap();
        let mut sink = |_: usize, _: &[TiltOp]| {};
        session.push(Gate::H(Qubit(0)), &mut sink).unwrap();
        let err = session.push(Gate::H(Qubit(40)), &mut sink).err().unwrap();
        assert!(err.to_string().contains("invalid input gate"), "{err}");
    }

    #[test]
    fn local_only_stream_uses_no_epr() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1)).cnot(Qubit(6), Qubit(7));
        let spec = ScaleSpec::new(10, 4).unwrap();
        let (_, summary) = collect_streams(&spec, &c, 4);
        assert_eq!(summary.epr_pairs, 0);
        assert_eq!(summary.elu_summaries.len(), 1);
    }
}
