//! Cross-crate QCCD integration: the comparator architecture against the
//! real paper benchmarks, plus the Fig. 8 shape claims as invariants. The
//! same orderings, with their measured ratios pinned, are rows of
//! `tests/paper_claims.rs`.

use bench::{run_qccd_best, run_tilt};
use tilt::compiler::decompose::decompose;
use tilt::engine::EngineBuilder;
use tilt::prelude::*;

/// Best QCCD success over the paper's 15–35 ions-per-trap sweep.
fn qccd_best_success(circuit: &Circuit) -> f64 {
    run_qccd_best(circuit).0.success
}

fn tilt_success(circuit: &Circuit, head: usize) -> f64 {
    run_tilt(circuit, head, EngineBuilder::default()).success
}

#[test]
fn qccd_routes_every_paper_benchmark() {
    for b in paper_suite() {
        let native = decompose(&b.circuit);
        let spec = QccdSpec::for_qubits(b.circuit.n_qubits(), 17).unwrap();
        let program = compile_qccd(&native, &spec).unwrap();
        assert_eq!(
            program.two_qubit_gate_count(),
            native.two_qubit_count(),
            "{}",
            b.name
        );
    }
}

#[test]
fn nearest_neighbour_apps_favor_tilt_over_qccd() {
    // The Fig. 8a claim: QAOA and RCS are significantly better on TILT.
    for b in paper_suite() {
        if b.communication == tilt::benchmarks::CommunicationPattern::NearestNeighbor {
            let tilt32 = tilt_success(&b.circuit, 32);
            let qccd = qccd_best_success(&b.circuit);
            assert!(
                tilt32 > qccd,
                "{}: TILT-32 {tilt32} should beat QCCD {qccd}",
                b.name
            );
        }
    }
}

#[test]
fn qft_favors_qccd_over_tilt16() {
    // The Fig. 8b claim: long-distance QFT is where QCCD wins.
    let qft = tilt::benchmarks::qft::qft64();
    let tilt16 = tilt_success(&qft, 16);
    let qccd = qccd_best_success(&qft);
    assert!(
        qccd > tilt16,
        "QCCD {qccd} should beat TILT-16 {tilt16} on QFT"
    );
}

#[test]
fn short_distance_apps_are_comparable_across_architectures() {
    // The Fig. 8a claim for ADDER/BV: "TILT has the same performance as
    // QCCD" — within a small factor, neither collapses.
    for b in paper_suite() {
        if matches!(
            b.communication,
            tilt::benchmarks::CommunicationPattern::ShortDistance
        ) || b.name == "BV"
        {
            let tilt16 = tilt_success(&b.circuit, 16);
            let qccd = qccd_best_success(&b.circuit);
            let ratio = tilt16 / qccd;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: TILT-16/QCCD ratio {ratio} outside comparable band",
                b.name
            );
        }
    }
}

#[test]
fn transports_scale_with_communication_distance() {
    // All-pairs QFT must transport far more than the nearest-neighbour
    // ADDER. (BV is *not* a good proxy despite being long-distance: its
    // single ancilla migrates once per trap and gets reused, which is
    // exactly the QCCD behaviour Fig. 8a shows for BV.)
    let native_qft = decompose(&tilt::benchmarks::qft::qft64());
    let native_adder = decompose(&tilt::benchmarks::adder::adder64());
    let spec = QccdSpec::for_qubits(64, 17).unwrap();
    let qft = compile_qccd(&native_qft, &spec).unwrap();
    let adder = compile_qccd(&native_adder, &spec).unwrap();
    assert!(
        qft.transport_count() > 10 * adder.transport_count(),
        "all-pairs QFT ({}) should transport far more than local ADDER ({})",
        qft.transport_count(),
        adder.transport_count()
    );
}
