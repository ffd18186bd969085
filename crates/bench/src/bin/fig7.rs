//! Regenerates **Fig. 7** of the TILT paper: success rate, swap count,
//! and tape-move count of BV, QFT, and SQRT under `MaxSwapLen`
//! restrictions from 15 down to 8 (head size 16).
//!
//! Run with: `cargo run --release -p tilt-bench --bin fig7`

use bench::run_tilt;
use tilt_benchmarks::suite::long_distance_suite;
use tilt_compiler::route::LinqConfig;
use tilt_compiler::RouterKind;
use tilt_engine::EngineBuilder;
use tilt_report::{fmt_success, Table};

const HEAD: usize = 16;

fn main() {
    for b in long_distance_suite() {
        let mut table = Table::new(["MaxSwapLen", "#Swaps", "#Moves", "Success"]);
        let mut best: Option<(usize, f64)> = None;
        for max_swap_len in (8..=HEAD - 1).rev() {
            let router = RouterKind::Linq(LinqConfig::with_max_swap_len(max_swap_len));
            let run = run_tilt(&b.circuit, HEAD, EngineBuilder::default().router(router));
            table.row([
                max_swap_len.to_string(),
                run.compile.swap_count.to_string(),
                run.compile.move_count.to_string(),
                fmt_success(run.success),
            ]);
            if best.is_none_or(|(_, s)| run.success > s) {
                best = Some((max_swap_len, run.success));
            }
        }
        let (best_len, best_success) = best.expect("sweep is non-empty");
        println!(
            "Fig. 7: {} under MaxSwapLen restriction (head {HEAD})\n",
            b.name
        );
        println!("{}", table.render());
        bench::maybe_print_csv(&table);
        println!(
            "best MaxSwapLen for {}: {best_len} (success {})\n",
            b.name,
            fmt_success(best_success)
        );
    }
    println!("Expected shape (paper): a sweet spot below the maximum — shorter");
    println!("swaps add gates but free the tape scheduler (Fig. 5); too short");
    println!("and the extra swaps dominate. The best value is per-application.");
}
