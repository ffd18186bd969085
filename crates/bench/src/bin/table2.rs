//! Regenerates **Table II** of the TILT paper: the benchmark suite with
//! qubit counts, two-qubit gate counts, and communication patterns.
//!
//! Run with: `cargo run --release -p tilt-bench --bin table2`

use tilt_benchmarks::paper_suite;
use tilt_report::Table;

fn main() {
    let mut table = Table::new([
        "Application",
        "Qubits",
        "2Q Gates (ours)",
        "2Q Gates (paper)",
        "Depth",
        "Communication",
    ]);
    for b in paper_suite() {
        let stats = b.circuit.stats();
        table.row([
            b.name.to_string(),
            stats.n_qubits.to_string(),
            stats.two_qubit_gates.to_string(),
            b.paper_two_qubit_gates.to_string(),
            stats.depth.to_string(),
            b.communication.to_string(),
        ]);
    }
    println!("Table II: list of benchmarks\n");
    println!("{}", table.render());
    bench::maybe_print_csv(&table);
    println!("Gate-count deltas vs the paper come from Toffoli/oracle lowering");
    println!("conventions; each row of `tilt_benchmarks::suite` gives its");
    println!("accounting, and `tests/paper_claims.rs` classes every count.");
}
