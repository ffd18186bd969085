//! The end-to-end LinQ pipeline (Fig. 4 of the paper).
//!
//! [`Compiler`] chains the three passes — native-gate decomposition, qubit
//! mapping + swap insertion, tape movement scheduling — and reports the
//! quantities the paper's evaluation tracks: swap counts and opposing
//! ratio (Fig. 6), move counts and tape travel (Table III), and the
//! wall-clock time of each pass (`t_swap`, `t_move` columns of Table III).
//!
//! There is one pass driver, [`StreamingCompiler`]. An in-memory compile
//! opens it over the whole circuit ([`StreamingCompiler::for_circuit`]),
//! feeds the circuit through in fixed windows and collects the
//! scheduled ops and the routed gates.

pub mod streaming;

use crate::error::CompileError;
use crate::mapping::InitialMapping;
use crate::program::TiltProgram;
use crate::route::{RouteOutcome, RouterKind};
use crate::schedule::SchedulerKind;
use crate::spec::DeviceSpec;
use std::time::Duration;
use streaming::{CollectSink, StreamingCompiler};
use tilt_circuit::Circuit;

/// Input gates per window of an in-memory compile. Output does not
/// depend on it; it bounds the per-window buffers.
const COMPILE_WINDOW: usize = 1024;

/// Lowered gates an in-memory compile reserves room for per input gate,
/// so its output buffers are usually allocated once instead of grown.
/// A CNOT lowers to five native gates; the paper suite and the
/// repetition code average about three.
const LOWERED_PER_INPUT: usize = 3;

/// Per-compilation statistics (the paper's evaluation metrics).
#[derive(Clone, Debug, PartialEq)]
pub struct CompileReport {
    /// Inserted SWAP gates (Fig. 6b).
    pub swap_count: usize,
    /// Swaps classified as opposing (Fig. 2c / Fig. 6a numerator).
    pub opposing_swap_count: usize,
    /// `opposing_swap_count / swap_count`, 0 when no swaps (Fig. 6a).
    pub opposing_ratio: f64,
    /// Tape movements (`#moves`, Table III / Fig. 6c).
    pub move_count: usize,
    /// Total tape travel in ion spacings (×5 µm = Table III `dist`).
    pub move_distance_ions: usize,
    /// Native gates in the scheduled program (after lowering swaps).
    pub native_gate_count: usize,
    /// Two-qubit (`XX`) gates in the scheduled program, swaps included.
    pub native_two_qubit_count: usize,
    /// Wall-clock time of decomposition.
    pub t_decompose: Duration,
    /// Wall-clock time of mapping + swap insertion (`t_swap`, Table III).
    pub t_swap: Duration,
    /// Wall-clock time of tape scheduling (`t_move`, Table III).
    pub t_move: Duration,
}

/// Everything a compilation produces.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The executable gate/move stream.
    pub program: TiltProgram,
    /// The routing outcome (physical circuit with explicit SWAPs, before
    /// swap lowering), kept for inspection and for the Fig. 6 metrics.
    pub routed: RouteOutcome,
    /// Aggregate statistics.
    pub report: CompileReport,
}

/// The LinQ compiler: a configurable three-pass pipeline.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::bv::bernstein_vazirani;
/// use tilt_compiler::{Compiler, DeviceSpec, RouterKind};
/// use tilt_compiler::route::LinqConfig;
///
/// let circuit = bernstein_vazirani(16, &[true; 15]);
/// let mut compiler = Compiler::new(DeviceSpec::new(16, 8)?);
/// compiler.router(RouterKind::Linq(LinqConfig::with_max_swap_len(6)));
/// let out = compiler.compile(&circuit)?;
/// assert!(out.report.swap_count > 0);
/// assert!(out.report.opposing_ratio >= 0.0);
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Compiler {
    spec: DeviceSpec,
    router: RouterKind,
    scheduler: SchedulerKind,
    initial_mapping: InitialMapping,
}

impl Compiler {
    /// A compiler for `spec` with the paper's defaults: LinQ routing,
    /// greedy max-executable scheduling, identity initial mapping.
    pub fn new(spec: DeviceSpec) -> Self {
        Compiler {
            spec,
            router: RouterKind::default(),
            scheduler: SchedulerKind::default(),
            initial_mapping: InitialMapping::default(),
        }
    }

    /// Selects the swap-insertion policy.
    pub fn router(&mut self, router: RouterKind) -> &mut Self {
        self.router = router;
        self
    }

    /// Selects the tape-scheduling policy.
    pub fn scheduler(&mut self, scheduler: SchedulerKind) -> &mut Self {
        self.scheduler = scheduler;
        self
    }

    /// Selects the initial-placement strategy.
    pub fn initial_mapping(&mut self, initial: InitialMapping) -> &mut Self {
        self.initial_mapping = initial;
        self
    }

    /// The targeted device.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Runs the full pipeline on `circuit`.
    ///
    /// # Errors
    ///
    /// Fails when the circuit is structurally invalid, wider than the
    /// tape, or the router configuration is inconsistent with the device.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompileOutput, CompileError> {
        let mut session = StreamingCompiler::for_circuit(self, circuit)?;
        let mut sink = CollectSink::for_input(circuit.len());
        for window in circuit.gates().chunks(COMPILE_WINDOW) {
            session.advance(window, false, &mut sink);
        }
        let summary = session.finish(&mut sink);
        Ok(sink.into_output(self.spec, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{LinqConfig, StochasticConfig};
    use tilt_circuit::{Gate, Qubit};

    fn compile(c: &Circuit, n: usize, head: usize) -> CompileOutput {
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(c)
            .unwrap()
    }

    #[test]
    fn end_to_end_small_circuit() {
        let mut c = Circuit::new(8);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(7));
        let out = compile(&c, 8, 4);
        // CNOT over distance 7 on head 4 needs at least one swap.
        assert!(out.report.swap_count >= 1);
        // Program contains only native gates.
        for (g, _) in out.program.gates() {
            assert!(g.is_native(), "{g:?}");
        }
    }

    #[test]
    fn program_preserves_xx_count_with_swap_overhead() {
        let mut c = Circuit::new(12);
        c.cnot(Qubit(0), Qubit(11));
        let out = compile(&c, 12, 4);
        // 1 XX for the CNOT + 3 per inserted swap.
        assert_eq!(
            out.program.two_qubit_gate_count(),
            1 + 3 * out.report.swap_count
        );
    }

    #[test]
    fn executable_program_covers_all_operands() {
        let mut c = Circuit::new(16);
        for i in 0..8 {
            c.cnot(Qubit(i), Qubit(15 - i));
        }
        let out = compile(&c, 16, 8);
        let spec = *out.program.spec();
        for (g, pos) in out.program.gates() {
            for q in g.operands() {
                assert!(spec.covers(pos, q.index()));
            }
        }
    }

    #[test]
    fn rejects_wide_circuits() {
        let c = Circuit::new(80);
        let err = Compiler::new(DeviceSpec::tilt64(16))
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::CircuitTooWide { .. }));
    }

    #[test]
    fn rejects_invalid_circuits() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), f64::NAN);
        let err = Compiler::new(DeviceSpec::new(2, 2).unwrap())
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::InvalidCircuit(_)));
    }

    #[test]
    fn rejects_inconsistent_router_config() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(3));
        let mut compiler = Compiler::new(DeviceSpec::new(4, 2).unwrap());
        compiler.router(RouterKind::Linq(LinqConfig::with_max_swap_len(5)));
        assert!(matches!(
            compiler.compile(&c).unwrap_err(),
            CompileError::InvalidRouterConfig { .. }
        ));
    }

    #[test]
    fn linq_beats_or_ties_baseline_on_swaps() {
        // Counterflow traffic: LinQ's opposing swaps should need no more
        // swaps than the baseline's max-jump greedy.
        let mut c = Circuit::new(24);
        for i in 0..6 {
            c.cnot(Qubit(i), Qubit(23 - i));
        }
        let spec = DeviceSpec::new(24, 8).unwrap();
        let linq = Compiler::new(spec).compile(&c).unwrap();
        let mut baseline_compiler = Compiler::new(spec);
        baseline_compiler.router(RouterKind::Stochastic(StochasticConfig::default()));
        let baseline = baseline_compiler.compile(&c).unwrap();
        assert!(
            linq.report.swap_count <= baseline.report.swap_count,
            "linq {} vs baseline {}",
            linq.report.swap_count,
            baseline.report.swap_count
        );
    }

    #[test]
    fn report_counts_match_program() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(15)).cnot(Qubit(3), Qubit(12));
        let out = compile(&c, 16, 6);
        assert_eq!(out.report.move_count, out.program.move_count());
        assert_eq!(
            out.report.move_distance_ions,
            out.program.move_distance_ions()
        );
        assert_eq!(out.report.native_gate_count, out.program.gate_count());
        assert_eq!(
            out.report.native_two_qubit_count,
            out.program.two_qubit_gate_count()
        );
    }

    #[test]
    fn swapless_program_has_zero_opposing_ratio() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1));
        let out = compile(&c, 8, 8);
        assert_eq!(out.report.swap_count, 0);
        assert_eq!(out.report.opposing_ratio, 0.0);
    }

    #[test]
    fn scheduler_choice_changes_move_count_not_gate_set() {
        let mut c = Circuit::new(32);
        for _ in 0..3 {
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(30), Qubit(31));
        }
        let spec = DeviceSpec::new(32, 8).unwrap();
        let greedy = Compiler::new(spec).compile(&c).unwrap();
        let mut naive_compiler = Compiler::new(spec);
        naive_compiler.scheduler(SchedulerKind::NaiveNextGate);
        let naive = naive_compiler.compile(&c).unwrap();
        assert_eq!(greedy.program.gate_count(), naive.program.gate_count());
        assert!(greedy.report.move_count <= naive.report.move_count);
    }

    #[test]
    fn measurement_passes_through_the_pipeline() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(3)).measure(Qubit(3));
        let out = compile(&c, 4, 4);
        assert!(out
            .program
            .gates()
            .any(|(g, _)| matches!(g, Gate::Measure(_))));
    }
}
