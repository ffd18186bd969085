//! Shared plumbing for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the TILT
//! paper:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table2` | Table II — benchmark characteristics |
//! | `table3` | Table III — compilation and execution metrics |
//! | `fig6`   | Fig. 6 — LinQ vs baseline swap insertion |
//! | `fig7`   | Fig. 7 — `MaxSwapLen` sweeps |
//! | `fig8`   | Fig. 8 — TILT vs Ideal TI vs QCCD success rates |
//! | `ablation` | DESIGN.md §5 — design-choice ablations |
//!
//! Performance is tracked outside this crate: the repository benchmark
//! (`perfbench/`) times the end-to-end workloads, and
//! `bench/ledger.jsonl` records them with the exact Algorithm 2 work
//! behind Table III's `t_move` column, which `tilt-compiler`'s tests
//! hold every change to.

use tilt_circuit::Circuit;
use tilt_compiler::{CompileOutput, Compiler, DeviceSpec, RouterKind};
use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdReport, QccdSpec};
use tilt_sim::{
    estimate_success, execution_time_us, ExecTimeModel, GateTimeModel, NoiseModel, SuccessReport,
};

/// The trap sizes swept for the QCCD comparison (§VI-B: 15–35 ions per
/// trap, best configuration reported).
pub const QCCD_TRAP_SIZES: [usize; 6] = [15, 17, 20, 25, 30, 35];

/// One evaluated TILT configuration.
#[derive(Clone, Debug)]
pub struct TiltEval {
    /// Full compiler output (program + routing + report).
    pub output: CompileOutput,
    /// Success estimation under the default noise model.
    pub success: SuccessReport,
    /// Eq. 5 execution time in µs.
    pub exec_time_us: f64,
}

/// Compiles `circuit` for a tape as wide as its register with the given
/// head size and router, then simulates it under the default models.
///
/// # Panics
///
/// Panics if compilation fails — harness inputs are the fixed paper
/// benchmarks, so failure is a bug worth crashing on.
pub fn evaluate_tilt(circuit: &Circuit, head: usize, router: RouterKind) -> TiltEval {
    let spec = DeviceSpec::new(circuit.n_qubits(), head).expect("paper head sizes are valid");
    let mut compiler = Compiler::new(spec);
    compiler.router(router);
    let output = compiler.compile(circuit).expect("paper benchmarks compile");
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();
    let success = estimate_success(&output.program, &noise, &times);
    let exec_time_us = execution_time_us(&output.program, &times, &ExecTimeModel::default());
    TiltEval {
        output,
        success,
        exec_time_us,
    }
}

/// Prints `table` as CSV to stdout when the `TILT_CSV` environment
/// variable is set — every harness doubles as a data exporter for
/// replotting.
pub fn maybe_print_csv(table: &tilt_report::Table) {
    if std::env::var_os("TILT_CSV").is_some() {
        println!("[csv]");
        print!("{}", table.to_csv());
    }
}

/// Best QCCD result over the paper's trap-size sweep, with the winning
/// ions-per-trap configuration.
pub fn evaluate_qccd_best(circuit: &Circuit) -> (QccdReport, usize) {
    let native = tilt_compiler::decompose::decompose(circuit);
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();
    QCCD_TRAP_SIZES
        .iter()
        .map(|&ions| {
            let spec =
                QccdSpec::for_qubits(circuit.n_qubits(), ions).expect("paper trap sizes are valid");
            let program = compile_qccd(&native, &spec).expect("paper benchmarks fit");
            (
                estimate_qccd_success(&program, &noise, &times, &QccdParams::default()),
                ions,
            )
        })
        .max_by(|(a, _), (b, _)| {
            a.success
                .partial_cmp(&b.success)
                .expect("success rates are comparable")
        })
        .expect("trap-size sweep is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_benchmarks::bv::bernstein_vazirani;

    #[test]
    fn evaluate_tilt_produces_consistent_report() {
        let c = bernstein_vazirani(16, &[true; 15]);
        let eval = evaluate_tilt(&c, 8, RouterKind::default());
        assert_eq!(eval.success.moves, eval.output.report.move_count);
        assert!(eval.exec_time_us > 0.0);
    }

    #[test]
    fn qccd_sweep_returns_valid_config() {
        let c = bernstein_vazirani(16, &[true; 15]);
        let (report, ions) = evaluate_qccd_best(&c);
        assert!(QCCD_TRAP_SIZES.contains(&ions));
        assert!(report.success > 0.0);
    }
}
