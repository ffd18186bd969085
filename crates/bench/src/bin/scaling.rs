//! The §VII "Trapped-Ion Scaling" experiments the paper discusses but
//! does not evaluate:
//!
//! 1. **Sympathetic cooling on TILT** — dual-species chains re-cool the
//!    tape during execution, recovering the success the shuttling heat
//!    costs (the paper: "would reduce the heating due to shuttling and
//!    allow for longer circuits").
//! 2. **Modular TILT (MUSIQC-style ELUs)** — wide programs split over
//!    photonically-linked TILT modules: shorter chains heat less per move
//!    (`k ∝ √n`) but every cross-module gate costs an EPR pair.
//!
//! Run with: `cargo run --release -p tilt-bench --bin scaling`

use bench::run_tilt;
use tilt_benchmarks::{qaoa::qaoa_maxcut, qft::qft64};
use tilt_engine::{Backend, EngineBuilder, RunDetail};
use tilt_report::{fmt_success, Table};
use tilt_scale::ScaleSpec;
use tilt_sim::CoolingPolicy;

fn main() {
    cooling_study();
    modular_study();
}

fn cooling_study() {
    println!("§VII study 1: sympathetic cooling on TILT (QFT-64, head 16)\n");
    let circuit = qft64();
    let mut table = Table::new(["cooling policy", "rounds", "final quanta", "success"]);
    let policies: Vec<(String, CoolingPolicy)> = vec![
        ("none (paper's TILT)".into(), CoolingPolicy::never()),
        ("threshold 10 quanta".into(), CoolingPolicy::threshold(10.0)),
        ("threshold 2 quanta".into(), CoolingPolicy::threshold(2.0)),
        ("every 8 moves".into(), CoolingPolicy::periodic(8)),
        ("every move".into(), CoolingPolicy::periodic(1)),
    ];
    for (label, policy) in policies {
        let run = run_tilt(&circuit, 16, EngineBuilder::default().cooling(policy));
        let r = run.tilt_success().expect("a TILT run");
        table.row([
            label,
            r.cooling_rounds.to_string(),
            format!("{:.1}", r.report.final_quanta),
            fmt_success(r.report.success),
        ]);
    }
    println!("{}", table.render());
    println!("Cooling recovers the orders of magnitude that 200+ tape moves cost");
    println!("QFT — the paper's \"longer circuits\" claim, quantified.\n");
}

fn modular_study() {
    println!("§VII study 2: modular TILT via photonic interconnects (QAOA-128)\n");
    let circuit = qaoa_maxcut(128, 20, 7);

    let mut table = Table::new([
        "configuration",
        "chains",
        "EPR pairs",
        "total moves",
        "success",
    ]);

    // Monolithic: one 128-ion tape, head 16.
    let mono = run_tilt(&circuit, 16, EngineBuilder::default());
    table.row([
        "monolithic 128-ion tape".to_string(),
        "1×128".to_string(),
        "0".to_string(),
        mono.compile.move_count.to_string(),
        fmt_success(mono.success),
    ]);

    // Modular: ELUs of 66 (2×64 data) and 34 (4×32 data) ions.
    for ions_per_elu in [66usize, 34, 18] {
        let spec = ScaleSpec::new(ions_per_elu, 16.min(ions_per_elu)).expect("valid ELU");
        let run = EngineBuilder::default()
            .backend(Backend::Scaled(spec))
            .build()
            .and_then(|engine| engine.run(&circuit))
            .expect("modular compiles");
        let RunDetail::Scaled { program, report: r } = &run.detail else {
            unreachable!("a scaled run")
        };
        table.row([
            format!("ELUs of {ions_per_elu} ions"),
            format!("{}×{}", program.elu_outputs.len(), ions_per_elu),
            r.remote_gates.to_string(),
            r.total_moves.to_string(),
            fmt_success(r.success),
        ]);
    }
    println!("{}", table.render());
    println!("Shorter chains heat less per move and parallelize tape motion, but");
    println!("each boundary interaction pays the ~0.95-fidelity EPR pair — the");
    println!("modularity trade-off MUSIQC-style proposals must balance.");
}
