//! Domain scenario: tuning `MaxSwapLen` — the paper's Fig. 7 experiment.
//!
//! Restricting the span of inserted SWAP gates below the head size trades
//! a few extra swaps for scheduling freedom: a swap of span `L-1` executes
//! at exactly one head position (Fig. 5), so shorter swaps let the tape
//! scheduler batch more gates per move. The sweet spot is
//! application-dependent; one `Engine` session per candidate value reruns
//! LinQ with that router configuration.
//!
//! Run with: `cargo run --release --example maxswaplen_tuning`

use tilt::benchmarks::sqrt::grover_sqrt;
use tilt::compiler::route::LinqConfig;
use tilt::prelude::*;
use tilt::report::{fmt_success, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized Grover instance (the paper sweeps the 78-qubit SQRT;
    // `cargo run --release -p tilt-bench --bin fig7` reproduces that exactly).
    let circuit = grover_sqrt(16, 225, 1);
    let head = 8;
    let spec = DeviceSpec::new(circuit.n_qubits(), head)?;
    println!(
        "Grover SQRT: {} qubits, {} two-qubit gates, head size {head}\n",
        circuit.n_qubits(),
        circuit.two_qubit_count()
    );

    let mut table = Table::new(["MaxSwapLen", "swaps", "moves", "success"]);
    let mut best: Option<(usize, f64)> = None;

    for max_swap_len in (3..=head - 1).rev() {
        let engine = Engine::builder()
            .backend(Backend::Tilt(spec))
            .router(RouterKind::Linq(LinqConfig::with_max_swap_len(
                max_swap_len,
            )))
            .build()?;
        let report = engine.run(&circuit)?;
        table.row([
            max_swap_len.to_string(),
            report.compile.swap_count.to_string(),
            report.compile.move_count.to_string(),
            fmt_success(report.success),
        ]);
        if best.is_none_or(|(_, b)| report.success > b) {
            best = Some((max_swap_len, report.success));
        }
    }
    println!("{}", table.render());

    let (len, success) = best.expect("at least one configuration ran");
    println!(
        "best MaxSwapLen for this application: {len} (success {})",
        fmt_success(success)
    );
    Ok(())
}
