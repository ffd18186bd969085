//! Regenerates **Fig. 6** of the TILT paper: LinQ swap insertion vs the
//! Qiskit-StochasticSwap-style baseline on the long-distance benchmarks
//! (BV, QFT, SQRT) at head size 16.
//!
//! * Fig. 6a — opposing-swap ratio (higher is better)
//! * Fig. 6b — swap count (lower is better)
//! * Fig. 6c — tape-move count (lower is better)
//! * Fig. 6d–f — success rates per application
//!
//! Run with: `cargo run --release -p tilt-bench --bin fig6`

use bench::run_tilt;
use tilt_benchmarks::suite::long_distance_suite;
use tilt_compiler::RouterKind;
use tilt_engine::EngineBuilder;
use tilt_report::{fmt_success, Table};

const HEAD: usize = 16;

fn main() {
    let mut table = Table::new([
        "Application",
        "Router",
        "OpposingRatio (6a)",
        "#Swaps (6b)",
        "#Moves (6c)",
        "Success (6d-f)",
    ]);

    for b in long_distance_suite() {
        for (label, router) in [
            ("baseline", RouterKind::Stochastic(Default::default())),
            ("LinQ", RouterKind::default()),
        ] {
            let run = run_tilt(&b.circuit, HEAD, EngineBuilder::default().router(router));
            let r = &run.tilt_output().expect("a TILT run").report;
            table.row([
                b.name.to_string(),
                label.to_string(),
                format!("{:.2}", r.opposing_ratio),
                r.swap_count.to_string(),
                r.move_count.to_string(),
                fmt_success(run.success),
            ]);
        }
    }

    println!("Fig. 6: LinQ vs baseline swap insertion (head size {HEAD})\n");
    println!("{}", table.render());
    bench::maybe_print_csv(&table);
    println!("Expected shape (paper): LinQ cuts swaps and moves on every long-");
    println!("distance benchmark, raises the opposing ratio on QFT/SQRT, finds");
    println!("no opposing swaps on BV (single-ancilla traffic), and therefore");
    println!("achieves the higher success rate throughout.");
}
