//! The compile pipeline's pass driver.
//!
//! [`StreamingCompiler`] runs the three passes — decompose, route,
//! schedule — over a gate stream, holding only O(window + look-ahead)
//! state: the current input window, the router's pruned pending suffix
//! ([`StreamRouter`]), and the scheduler's active horizon
//! ([`StreamScheduler`]). Each window's routed gates and then its
//! scheduled ops leave through a [`ProgramSink`] as increments. It is
//! the only pass driver: [`Compiler::compile`] feeds an in-memory
//! circuit through it in fixed windows and collects both streams, so
//! every window size yields the same op stream, pinned by the
//! equivalence tests and `tests/streaming_equivalence.rs`.
//!
//! Carry-over state between windows:
//!
//! * the logical→physical [`Mapping`] and the router's swap/opposing
//!   counters, look-ahead window and policy state (LinQ weight cache or
//!   the stochastic policy's RNG);
//! * the scheduler's dependency frontier, head position, and
//!   per-position score caches;
//! * the report accumulators (move count/distance, gate counts, pass
//!   timings).
//!
//! A window is never scheduled before its successors' dependencies are
//! known: the scheduler ingests up to its eligibility horizon before
//! committing any round instead of scheduling each window in isolation.
//! [`InitialMapping::InteractionChain`] weighs the whole interaction
//! graph before placing the first ion, so a true stream rejects it; a
//! session opened over a whole circuit
//! ([`StreamingCompiler::for_circuit`]) runs it as a pre-pass and then
//! streams.
//!
//! [`InitialMapping::InteractionChain`]: crate::InitialMapping::InteractionChain

use super::{CompileOutput, CompileReport, Compiler, COMPILE_WINDOW, LOWERED_PER_INPUT};
use crate::decompose::{decompose, decompose_gate};
use crate::error::CompileError;
use crate::mapping::Mapping;
use crate::program::{OpTally, TiltOp, TiltProgram};
use crate::route::streaming::StreamRouter;
use crate::route::{opposing_ratio, RouteOutcome};
use crate::schedule::{StreamScheduler, DEFAULT_HORIZON};
use crate::spec::DeviceSpec;
use std::time::{Duration, Instant};
use tilt_circuit::{validate, validate_gate, Circuit, Gate};

/// Receives scheduled program increments from the streaming pipeline.
///
/// `emit` is called with each non-empty batch of ops in execution order;
/// the concatenation of all batches equals the in-memory compile's
/// [`TiltProgram::ops`](crate::TiltProgram::ops) stream byte for byte.
pub trait ProgramSink {
    /// Consumes the next increment of the scheduled op stream.
    fn emit(&mut self, ops: &[TiltOp]);

    /// Consumes the next non-empty batch of routed gates (physical
    /// circuit, explicit SWAPs), before the ops of the same window. The
    /// batches concatenate to the in-memory compile's
    /// [`RouteOutcome::circuit`](crate::RouteOutcome::circuit). Ignored
    /// by default.
    fn routed(&mut self, _gates: &[Gate]) {}
}

/// Any `FnMut(&[TiltOp])` is a sink.
impl<F: FnMut(&[TiltOp])> ProgramSink for F {
    fn emit(&mut self, ops: &[TiltOp]) {
        self(ops);
    }
}

/// A sink that simply collects every op and routed gate (in-memory
/// compiles, testing).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// All ops emitted so far, in execution order.
    pub ops: Vec<TiltOp>,
    /// All routed gates so far, in program order.
    pub routed: Vec<Gate>,
}

impl CollectSink {
    /// A sink with room for the output of about `gates` input gates.
    pub fn for_input(gates: usize) -> Self {
        let expected = gates.saturating_mul(LOWERED_PER_INPUT);
        CollectSink {
            ops: Vec::with_capacity(expected),
            routed: Vec::with_capacity(expected),
        }
    }

    /// The in-memory compile output on `spec` of the session that fed
    /// this sink and ended with `summary`.
    pub fn into_output(self, spec: DeviceSpec, summary: StreamSummary) -> CompileOutput {
        let report = summary.report;
        CompileOutput {
            program: TiltProgram::new(spec, self.ops),
            routed: RouteOutcome {
                circuit: Circuit::from_gates(spec.n_ions(), self.routed),
                initial_mapping: summary.initial_mapping,
                final_mapping: summary.final_mapping,
                swap_count: report.swap_count,
                opposing_swap_count: report.opposing_swap_count,
            },
            report,
        }
    }
}

impl ProgramSink for CollectSink {
    fn emit(&mut self, ops: &[TiltOp]) {
        self.ops.extend_from_slice(ops);
    }

    fn routed(&mut self, gates: &[Gate]) {
        self.routed.extend_from_slice(gates);
    }
}

/// What a completed streaming compile reports.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// The same statistics an in-memory compile reports — identical
    /// values except the wall-clock fields.
    pub report: CompileReport,
    /// Number of non-empty increments handed to the sink.
    pub increments: usize,
    /// Program gates consumed from the input stream.
    pub input_gate_count: usize,
    /// The starting permutation used.
    pub initial_mapping: Mapping,
    /// The permutation after the final gate.
    pub final_mapping: Mapping,
}

/// Push-based streaming compilation with the same output as
/// [`Compiler::compile`].
///
/// Feed program gates with [`push`](StreamingCompiler::push); every
/// `window` input gates the pipeline advances all three passes and
/// flushes any newly scheduled ops to the sink. [`finish`]
/// (StreamingCompiler::finish) drains the carry-over state and returns
/// the summary.
pub struct StreamingCompiler {
    spec: DeviceSpec,
    n_qubits: usize,
    window: usize,
    /// Buffered input program gates of the current window.
    buffer: Vec<Gate>,
    /// Decompose-pass scratch (native expansion of the window).
    native: Circuit,
    /// Swap-lowering scratch (native expansion of routed increments).
    lowered: Circuit,
    router: StreamRouter,
    scheduler: StreamScheduler,
    /// Scheduled ops awaiting the next flush.
    ops: Vec<TiltOp>,
    initial_mapping: Mapping,
    input_gate_count: usize,
    increments: usize,
    /// Move/gate counts and travel, folded over the ops as they are
    /// scheduled.
    tally: OpTally,
    t_decompose: Duration,
    t_swap: Duration,
    t_move: Duration,
}

impl StreamingCompiler {
    /// Starts a streaming session for `compiler`'s configuration over a
    /// `n_qubits`-wide input stream, flushing every `window` input gates
    /// (`usize::MAX` streams the whole input as one window).
    ///
    /// # Errors
    ///
    /// [`CompileError::CircuitTooWide`] when the register exceeds the
    /// tape, [`CompileError::InvalidRouterConfig`] for inconsistent
    /// router parameters, and [`CompileError::StreamingUnsupported`] for
    /// configurations that must inspect the whole circuit
    /// ([`InitialMapping::InteractionChain`]).
    ///
    /// [`InitialMapping::InteractionChain`]: crate::InitialMapping::InteractionChain
    pub fn new(compiler: &Compiler, n_qubits: usize, window: usize) -> Result<Self, CompileError> {
        compiler.spec.check_width(n_qubits)?;
        let Some(initial) = compiler
            .initial_mapping
            .build_streaming(compiler.spec.n_ions())
        else {
            return Err(CompileError::StreamingUnsupported {
                reason: format!(
                    "initial mapping {:?} must inspect the whole circuit before placing ions",
                    compiler.initial_mapping
                ),
            });
        };
        Self::with_initial(compiler, n_qubits, window, initial)
    }

    /// A session over the whole of `circuit`, to be fed its gates:
    /// validates it, sizes the scheduler for it, and places ions by a
    /// pre-pass when the initial mapping needs the whole circuit.
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`].
    pub fn for_circuit(compiler: &Compiler, circuit: &Circuit) -> Result<Self, CompileError> {
        validate(circuit)?;
        compiler.spec.check_width(circuit.n_qubits())?;
        let n_ions = compiler.spec.n_ions();
        let t0 = Instant::now();
        let (initial, t_decompose) = match compiler.initial_mapping.build_streaming(n_ions) {
            Some(initial) => (initial, Duration::ZERO),
            None => {
                let native = decompose(circuit);
                let t_decompose = t0.elapsed();
                (compiler.initial_mapping.build(&native, n_ions), t_decompose)
            }
        };
        // The pre-pass decompose counts toward `t_decompose`, placement
        // toward `t_swap`.
        let t_swap = t0.elapsed() - t_decompose;
        let mut session =
            Self::with_initial(compiler, circuit.n_qubits(), COMPILE_WINDOW, initial)?;
        // Beyond its horizon the scheduler retires gates as it goes.
        let expected = circuit.len().saturating_mul(LOWERED_PER_INPUT);
        session.scheduler.reserve(expected.min(2 * DEFAULT_HORIZON));
        session.t_decompose = t_decompose;
        session.t_swap = t_swap;
        Ok(session)
    }

    /// [`StreamingCompiler::new`] from an already-built starting
    /// permutation.
    fn with_initial(
        compiler: &Compiler,
        n_qubits: usize,
        window: usize,
        initial: Mapping,
    ) -> Result<Self, CompileError> {
        let spec = compiler.spec;
        spec.check_width(n_qubits)?;
        let router = StreamRouter::new(&compiler.router, spec, initial.clone())?;
        let scheduler = StreamScheduler::new(spec, compiler.scheduler, DEFAULT_HORIZON);
        Ok(StreamingCompiler {
            spec,
            n_qubits,
            window: window.max(1),
            buffer: Vec::new(),
            native: Circuit::new(n_qubits),
            lowered: Circuit::new(spec.n_ions()),
            router,
            scheduler,
            ops: Vec::new(),
            initial_mapping: initial,
            input_gate_count: 0,
            increments: 0,
            tally: OpTally::default(),
            t_decompose: Duration::ZERO,
            t_swap: Duration::ZERO,
            t_move: Duration::ZERO,
        })
    }

    /// The starting permutation the router places ions with.
    pub fn initial_mapping(&self) -> &Mapping {
        &self.initial_mapping
    }

    /// Ingests the next program gate; advances the pipeline and flushes
    /// to `sink` when the current window fills.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidCircuit`] with the offending gate's global
    /// index, exactly as whole-circuit validation reports it.
    pub fn push(&mut self, g: Gate, sink: &mut dyn ProgramSink) -> Result<(), CompileError> {
        validate_gate(&g, self.input_gate_count + self.buffer.len(), self.n_qubits)?;
        self.buffer.push(g);
        if self.buffer.len() >= self.window {
            self.flush_buffer(false, sink);
        }
        Ok(())
    }

    /// Declares end of input, drains every pass, flushes the final
    /// increment, and reports.
    pub fn finish(mut self, sink: &mut dyn ProgramSink) -> StreamSummary {
        self.flush_buffer(true, sink);
        debug_assert!(self.scheduler.is_done());
        let swap_count = self.router.swap_count();
        let opposing_swap_count = self.router.opposing_swap_count();
        let opposing_ratio = opposing_ratio(opposing_swap_count, swap_count);
        StreamSummary {
            report: CompileReport {
                swap_count,
                opposing_swap_count,
                opposing_ratio,
                move_count: self.tally.moves,
                move_distance_ions: self.tally.move_distance_ions,
                native_gate_count: self.tally.gates,
                native_two_qubit_count: self.tally.two_qubit_gates,
                t_decompose: self.t_decompose,
                t_swap: self.t_swap,
                t_move: self.t_move,
            },
            increments: self.increments,
            input_gate_count: self.input_gate_count,
            initial_mapping: self.initial_mapping,
            final_mapping: self.router.mapping().clone(),
        }
    }

    fn flush_buffer(&mut self, eof: bool, sink: &mut dyn ProgramSink) {
        let buffer = std::mem::take(&mut self.buffer);
        self.advance(&buffer, eof, sink);
        self.buffer = buffer;
        self.buffer.clear();
    }

    /// Runs one window of already-validated input gates through
    /// decompose → route → schedule and flushes any scheduled ops.
    pub(crate) fn advance(&mut self, gates: &[Gate], eof: bool, sink: &mut dyn ProgramSink) {
        self.input_gate_count += gates.len();

        // Pass 1: native-gate decomposition (§IV-B) of this window.
        let t0 = Instant::now();
        self.native.reset(self.n_qubits);
        for g in gates {
            decompose_gate(&mut self.native, g);
        }
        self.t_decompose += t0.elapsed();

        // Pass 2: mapping + swap insertion (§IV-C), carried across
        // windows by the router.
        let t1 = Instant::now();
        self.router.extend(self.native.gates());
        if eof {
            self.router.finish_input();
        }
        self.t_swap += t1.elapsed();

        // Lower routed SWAPs to native gates, then pass 3: tape
        // scheduling (§IV-D) up to the carry-over horizon.
        let t2 = Instant::now();
        let routed = self.router.routed_mut();
        self.lowered.reset(self.spec.n_ions());
        for g in routed.iter() {
            decompose_gate(&mut self.lowered, g);
        }
        for g in self.lowered.gates() {
            self.scheduler.push(*g);
        }
        if eof {
            self.scheduler.finish_input();
        }
        self.scheduler.run_rounds(&mut self.ops);
        self.t_move += t2.elapsed();

        if !routed.is_empty() {
            sink.routed(routed);
            routed.clear();
        }
        for op in &self.ops {
            self.tally.push(op);
        }
        if !self.ops.is_empty() {
            sink.emit(&self.ops);
            self.increments += 1;
            self.ops.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::mapping::InitialMapping;
    use crate::pipeline::CompileOutput;
    use crate::route::{LinqConfig, RouterKind, StochasticConfig};
    use crate::schedule::{schedule, SchedulerKind};
    use tilt_circuit::Qubit;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random program-level workload (pre-decomposition gate set).
    fn workload(n: usize, len: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed;
        for _ in 0..len {
            let q = |s: &mut u64| Qubit((xorshift(s) as usize) % n);
            match xorshift(&mut s) % 12 {
                0 => {
                    c.barrier();
                }
                1 => {
                    c.h(q(&mut s));
                }
                2 => {
                    c.t(q(&mut s));
                }
                3 => {
                    let a = q(&mut s);
                    c.measure(a).reset_qubit(a);
                }
                4 | 5 => {
                    let (a, b) = distinct(n, &mut s);
                    c.cphase(a, b, 0.3);
                }
                _ => {
                    let (a, b) = distinct(n, &mut s);
                    c.cnot(a, b);
                }
            }
        }
        c
    }

    fn distinct(n: usize, s: &mut u64) -> (Qubit, Qubit) {
        let a = (xorshift(s) as usize) % n;
        let mut b = (xorshift(s) as usize) % n;
        if a == b {
            b = (b + 1) % n;
        }
        (Qubit(a), Qubit(b))
    }

    fn configs() -> Vec<Compiler> {
        let spec = DeviceSpec::new(24, 6).unwrap();
        let mut linq_capped = Compiler::new(spec);
        linq_capped.router(RouterKind::Linq(LinqConfig::with_max_swap_len(3)));
        let mut stochastic = Compiler::new(spec);
        stochastic.router(RouterKind::Stochastic(StochasticConfig::default()));
        let mut naive = Compiler::new(spec);
        naive.scheduler(SchedulerKind::NaiveNextGate);
        let mut discounted = Compiler::new(spec);
        discounted.scheduler(SchedulerKind::DistanceDiscounted {
            penalty_permille: 250,
        });
        let mut reverse = Compiler::new(spec);
        reverse.initial_mapping(InitialMapping::Reverse);
        let mut random = Compiler::new(spec);
        random.initial_mapping(InitialMapping::Random(13));
        vec![
            Compiler::new(spec),
            linq_capped,
            stochastic,
            naive,
            discounted,
            reverse,
            random,
        ]
    }

    /// The passes run one after another over whole circuits, routed by
    /// the seed's monolithic router loop.
    fn oracle_compile(compiler: &Compiler, c: &Circuit) -> CompileOutput {
        let spec = compiler.spec;
        let native = decompose(c);
        let initial = compiler.initial_mapping.build(&native, spec.n_ions());
        let routed = crate::route::oracle::route(&compiler.router, &native, spec, &initial);
        let program = schedule(&decompose(&routed.circuit), spec, compiler.scheduler);
        let report = CompileReport {
            swap_count: routed.swap_count,
            opposing_swap_count: routed.opposing_swap_count,
            opposing_ratio: routed.opposing_ratio(),
            move_count: program.move_count(),
            move_distance_ions: program.move_distance_ions(),
            native_gate_count: program.gate_count(),
            native_two_qubit_count: program.two_qubit_gate_count(),
            t_decompose: Duration::ZERO,
            t_swap: Duration::ZERO,
            t_move: Duration::ZERO,
        };
        CompileOutput {
            program,
            routed,
            report,
        }
    }

    #[test]
    fn in_memory_compile_matches_the_pass_by_pass_oracle() {
        let c = workload(24, 400, 0xA11CE);
        let mut chain = Compiler::new(DeviceSpec::new(24, 6).unwrap());
        chain.initial_mapping(InitialMapping::InteractionChain);
        for compiler in configs().into_iter().chain([chain]) {
            let got = compiler.compile(&c).unwrap();
            let want = oracle_compile(&compiler, &c);
            assert_eq!(got.program, want.program, "{compiler:?}");
            assert_eq!(got.routed.circuit, want.routed.circuit);
            assert_eq!(got.routed.initial_mapping, want.routed.initial_mapping);
            assert_eq!(got.routed.final_mapping, want.routed.final_mapping);
            assert_eq!(got.routed.swap_count, want.routed.swap_count);
            assert_eq!(
                got.routed.opposing_swap_count,
                want.routed.opposing_swap_count
            );
            let untimed = |r: &CompileReport| CompileReport {
                t_decompose: Duration::ZERO,
                t_swap: Duration::ZERO,
                t_move: Duration::ZERO,
                ..r.clone()
            };
            assert_eq!(untimed(&got.report), want.report);
        }
    }

    #[test]
    fn streamed_compile_matches_monolithic_across_windows() {
        let c = workload(24, 400, 0xA11CE);
        for compiler in configs() {
            let mono = oracle_compile(&compiler, &c);
            for window in [1usize, 64, 1024, usize::MAX] {
                let mut sink = CollectSink::default();
                let mut session = StreamingCompiler::new(&compiler, c.n_qubits(), window).unwrap();
                for g in c.gates() {
                    session.push(*g, &mut sink).unwrap();
                }
                let summary = session.finish(&mut sink);
                assert_eq!(sink.ops, mono.program.ops(), "window {window}");
                assert_eq!(summary.final_mapping, mono.routed.final_mapping);
                assert_eq!(summary.initial_mapping, mono.routed.initial_mapping);
                let (sr, mr) = (&summary.report, &mono.report);
                assert_eq!(sr.swap_count, mr.swap_count);
                assert_eq!(sr.opposing_swap_count, mr.opposing_swap_count);
                assert_eq!(sr.move_count, mr.move_count);
                assert_eq!(sr.move_distance_ions, mr.move_distance_ions);
                assert_eq!(sr.native_gate_count, mr.native_gate_count);
                assert_eq!(sr.native_two_qubit_count, mr.native_two_qubit_count);
                assert!(summary.increments >= 1);
                assert_eq!(summary.input_gate_count, c.len());
            }
        }
    }

    #[test]
    fn interaction_chain_mapping_is_rejected() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let mut compiler = Compiler::new(spec);
        compiler.initial_mapping(InitialMapping::InteractionChain);
        let err = StreamingCompiler::new(&compiler, 8, 64).err().unwrap();
        assert!(matches!(err, CompileError::StreamingUnsupported { .. }));
    }

    #[test]
    fn invalid_gate_reports_global_index() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let compiler = Compiler::new(spec);
        let mut session = StreamingCompiler::new(&compiler, 8, 4).unwrap();
        let mut sink = CollectSink::default();
        for i in 0..10 {
            session
                .push(Gate::Rx(Qubit(i % 8), 0.5), &mut sink)
                .unwrap();
        }
        let err = session
            .push(Gate::Rz(Qubit(0), f64::NAN), &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::InvalidCircuit(tilt_circuit::ValidateCircuitError::NonFiniteAngle {
                gate_index: 10
            })
        ));
    }

    #[test]
    fn too_wide_stream_is_rejected() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let compiler = Compiler::new(spec);
        let err = StreamingCompiler::new(&compiler, 9, 64).err().unwrap();
        assert!(matches!(err, CompileError::CircuitTooWide { .. }));
    }

    #[test]
    fn empty_stream_compiles_to_empty_program() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let compiler = Compiler::new(spec);
        let mut sink = CollectSink::default();
        let summary = StreamingCompiler::new(&compiler, 8, 64)
            .unwrap()
            .finish(&mut sink);
        assert!(sink.ops.is_empty());
        assert_eq!(summary.increments, 0);
        assert_eq!(summary.report.native_gate_count, 0);
    }
}
