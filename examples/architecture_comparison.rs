//! Domain scenario: the paper's headline experiment in miniature — TILT
//! vs QCCD vs the ideal trapped-ion device on benchmarks with opposite
//! communication patterns (Fig. 8 of the paper).
//!
//! This is the experiment the unified session API exists for: the same
//! circuit runs through `Engine` sessions that differ **only in their
//! backend**, and every architecture answers with the same report shape.
//!
//! Run with: `cargo run --release --example architecture_comparison`

use tilt::benchmarks::{qaoa::qaoa_maxcut, qft::qft};
use tilt::prelude::*;
use tilt::report::{fmt_success, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workloads: Vec<(&str, tilt::circuit::Circuit)> = vec![
        ("QAOA (nearest-neighbour)", qaoa_maxcut(64, 20, 7)),
        ("QFT (long-distance)", qft(64)),
    ];

    let mut table = Table::new([
        "workload",
        "TILT head 16",
        "TILT head 32",
        "QCCD",
        "Ideal TI",
    ]);

    for (name, circuit) in workloads {
        let mut cells = vec![name.to_string()];

        // TILT at both paper head sizes: one session per machine.
        for head in [16, 32] {
            let engine = Engine::builder()
                .backend(Backend::Tilt(DeviceSpec::new(circuit.n_qubits(), head)?))
                .build()?;
            cells.push(fmt_success(engine.run(&circuit)?.success));
        }

        // QCCD: best trap size in the paper's 15–35 range — the same
        // circuit through sessions that differ only in their backend.
        let qccd_best = bench::QCCD_TRAP_SIZES
            .iter()
            .map(|&ions| {
                let spec = QccdSpec::for_qubits(circuit.n_qubits(), ions)
                    .expect("paper trap sizes are valid");
                Engine::builder()
                    .backend(Backend::Qccd(spec))
                    .build()
                    .expect("valid spec builds")
                    .run(&circuit)
                    .expect("benchmark fits the array")
                    .success
            })
            .fold(0.0f64, f64::max);
        cells.push(fmt_success(qccd_best));

        // Ideal fully-connected trapped-ion device.
        let ideal =
            estimate_ideal_success(&circuit, &NoiseModel::default(), &GateTimeModel::default());
        cells.push(fmt_success(ideal.success));

        table.row(cells);
    }

    println!("{}", table.render());
    println!("TILT wins where communication fits the head (QAOA); QCCD wins on");
    println!("all-to-all traffic (QFT) where TILT pays hundreds of heating tape moves.");
    Ok(())
}
