//! Regenerates **Fig. 8** of the TILT paper: application success rates on
//! TILT (head 16 and 32) vs the ideal trapped-ion device vs the best QCCD
//! configuration, plus the headline "up to X× / Y× on average" summary of
//! §I and §VI-B.
//!
//! Run with: `cargo run --release -p tilt-bench --bin fig8`

use bench::{run_qccd_best, run_tilt};
use tilt_benchmarks::{paper_suite, PAPER_FIG8_HEADLINE};
use tilt_engine::EngineBuilder;
use tilt_report::{fmt_success, Table};
use tilt_sim::{estimate_ideal_success, GateTimeModel, NoiseModel};

fn main() {
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();

    let mut table = Table::new([
        "Application",
        "TILT head 16",
        "TILT head 32",
        "Ideal TI",
        "QCCD (best)",
        "best trap",
        "TILT16/QCCD",
        "TILT32/QCCD",
    ]);

    let mut ratios16 = Vec::new();
    let mut ratios32 = Vec::new();
    for b in paper_suite() {
        let t16 = run_tilt(&b.circuit, 16, EngineBuilder::default());
        let t32 = run_tilt(&b.circuit, 32, EngineBuilder::default());
        let ideal = estimate_ideal_success(&b.circuit, &noise, &times);
        let (qccd, trap) = run_qccd_best(&b.circuit);
        let r16 = t16.success / qccd.success;
        let r32 = t32.success / qccd.success;
        ratios16.push(r16);
        ratios32.push(r32);
        table.row([
            b.name.to_string(),
            fmt_success(t16.success),
            fmt_success(t32.success),
            fmt_success(ideal.success),
            fmt_success(qccd.success),
            trap.to_string(),
            format!("{r16:.2}"),
            format!("{r32:.2}"),
        ]);
    }

    println!("Fig. 8: success rates across device configurations\n");
    println!("{}", table.render());
    bench::maybe_print_csv(&table);

    let max32 = ratios32.iter().cloned().fold(0.0f64, f64::max);
    let mean32 = ratios32.iter().sum::<f64>() / ratios32.len() as f64;
    let max16 = ratios16.iter().cloned().fold(0.0f64, f64::max);
    let mean16 = ratios16.iter().sum::<f64>() / ratios16.len() as f64;
    let (paper_max, paper_mean) = PAPER_FIG8_HEADLINE;
    println!("headline summary (paper: up to {paper_max:.2}x, {paper_mean:.2}x on average):");
    println!("  head 32: up to {max32:.2}x over QCCD, {mean32:.2}x on average");
    println!("  head 16: up to {max16:.2}x over QCCD, {mean16:.2}x on average");
    println!();
    println!("Expected shape (paper): ADDER/BV comparable across architectures;");
    println!("QAOA/RCS clearly favour TILT; QFT favours QCCD (long-distance");
    println!("traffic costs TILT hundreds of heating tape moves); Ideal TI");
    println!("upper-bounds everything. SQRT, long-distance too, favours QCCD at");
    println!("both heads here. `tests/paper_claims.rs` holds each ordering.");
}
