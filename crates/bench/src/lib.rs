//! The one evaluation behind the experiment harnesses.
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
//! | `headsize` | head-size sweep behind the 32-laser choice of §I |
//! | `ablation` | design-choice ablations (listed in its module doc) |
//! | `scaling` | the §VII trapped-ion scaling studies |
//!
//! Run one with `cargo run --release -p tilt-bench --bin <name>`.
//!
//! Every configuration runs through
//! [`Engine::run`](tilt_engine::Engine::run), the path users
//! drive, and the harnesses read the [`RunReport`] it returns. The
//! paper's own numbers live in `tilt_benchmarks::suite`, and
//! `tests/paper_claims.rs` classes ours against them. Performance is
//! tracked by the repository benchmark (`perfbench/`), not here.

use tilt_circuit::Circuit;
use tilt_compiler::DeviceSpec;
use tilt_engine::{Backend, EngineBuilder, RunReport};
use tilt_qccd::QccdSpec;

/// The trap sizes swept for the QCCD comparison (§VI-B, after Murali et
/// al.: 15–35 ions per trap, best configuration reported).
pub const QCCD_TRAP_SIZES: [usize; 6] = [15, 17, 20, 25, 30, 35];

/// Runs `circuit` on a TILT tape as wide as its register with a head of
/// `head` lasers, under whatever else `builder` carries (router,
/// scheduler, initial mapping, noise, cooling).
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the circuit —
/// harness inputs are fixed paper configurations, so failure is a bug
/// worth crashing on.
pub fn run_tilt(circuit: &Circuit, head: usize, builder: EngineBuilder) -> RunReport {
    let spec = DeviceSpec::new(circuit.n_qubits(), head).expect("paper head sizes are valid");
    run(circuit, builder.backend(Backend::Tilt(spec)))
}

/// The best QCCD run over the paper's trap-size sweep, with the winning
/// ions-per-trap configuration.
///
/// # Panics
///
/// As [`run_tilt`].
pub fn run_qccd_best(circuit: &Circuit) -> (RunReport, usize) {
    QCCD_TRAP_SIZES
        .iter()
        .map(|&ions| {
            let spec =
                QccdSpec::for_qubits(circuit.n_qubits(), ions).expect("paper trap sizes are valid");
            let builder = EngineBuilder::default().backend(Backend::Qccd(spec));
            (run(circuit, builder), ions)
        })
        .max_by(|(a, _), (b, _)| {
            a.success
                .partial_cmp(&b.success)
                .expect("success rates are comparable")
        })
        .expect("trap-size sweep is non-empty")
}

fn run(circuit: &Circuit, builder: EngineBuilder) -> RunReport {
    builder
        .build()
        .expect("paper configurations are valid")
        .run(circuit)
        .expect("paper benchmarks compile")
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

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_benchmarks::bv::bernstein_vazirani;

    #[test]
    fn evaluate_tilt_produces_consistent_report() {
        let c = bernstein_vazirani(16, &[true; 15]);
        let report = run_tilt(&c, 8, EngineBuilder::default());
        let success = report.tilt_success().expect("a TILT run");
        assert_eq!(success.report.moves, report.compile.move_count);
        assert!(report.exec_time_us > 0.0);
    }

    #[test]
    fn qccd_sweep_returns_valid_config() {
        let c = bernstein_vazirani(16, &[true; 15]);
        let (report, ions) = run_qccd_best(&c);
        assert!(QCCD_TRAP_SIZES.contains(&ions));
        assert!(report.qccd_report().is_some());
        assert!(report.success > 0.0);
    }
}
