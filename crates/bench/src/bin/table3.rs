//! Regenerates **Table III** of the TILT paper: LinQ compilation results —
//! pass times, tape-move counts, travel distance, and estimated program
//! execution time for head sizes 16 and 32.
//!
//! Run with: `cargo run --release -p tilt-bench --bin table3`

use bench::run_tilt;
use tilt_benchmarks::paper_suite;
use tilt_engine::EngineBuilder;
use tilt_report::{fmt_secs, Table};
use tilt_sim::ExecTimeModel;

fn main() {
    for (hi, head) in [16usize, 32].into_iter().enumerate() {
        let mut table = Table::new([
            "Application",
            "t_swap(s)",
            "t_move(s)",
            "#moves",
            "dist(spacings)",
            "dist(um)",
            "t_exec(s)",
            "paper #moves",
            "paper dist(spacings)",
            "paper t_exec(s)",
        ]);
        for b in paper_suite() {
            let run = run_tilt(&b.circuit, head, EngineBuilder::default());
            let program = run.tilt_program().expect("a TILT run");
            let dist_um = ExecTimeModel::default().travel_um(program);
            let paper = b.paper_table3[hi];
            table.row([
                b.name.to_string(),
                fmt_secs(run.compile.t_swap),
                fmt_secs(run.compile.t_move),
                run.compile.move_count.to_string(),
                run.compile.move_distance.to_string(),
                format!("{dist_um:.0}"),
                format!("{:.3}", run.exec_time_us / 1e6),
                paper.moves.to_string(),
                paper.dist.to_string(),
                format!("{:.3}", paper.t_exec_s),
            ]);
        }
        println!("Table III: LinQ compilation results — head size {head}\n");
        println!("{}", table.render());
        bench::maybe_print_csv(&table);
    }
    println!("dist(spacings) is head travel in ion spacings, the paper's unit;");
    println!("dist(um) is the same travel at the execution-time model's ion pitch.");
    println!("Wall-clock pass times are host-dependent (the paper used a 32-core");
    println!("Xeon running a Python/Qiskit-based stack); orderings, not absolute");
    println!("values, are the reproduction target. `tests/paper_claims.rs`");
    println!("classes every paper column against ours.");
}
