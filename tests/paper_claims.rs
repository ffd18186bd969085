//! Every number a harness prints as "paper", classed against ours.
//!
//! `table2`, `table3` and `fig8` print the paper's numbers from
//! `tilt_benchmarks::suite` beside ours, and `fig8` prints the orderings
//! the paper reads off Fig. 8. Each gets one row in [`CLAIMS`] with one
//! class:
//!
//! - [`Within`]: reproduced within the stated relative tolerance;
//! - [`Order`]: reproduced in order only — ours / paper lies strictly
//!   inside the stated band. For a Fig. 8 ordering the paper value is
//!   parity (TILT = QCCD), so the band names the side the paper puts the
//!   application on;
//! - [`Deviation`]: not reproduced, for the one-line reason given;
//! - [`Unexplained`]: not reproduced, and nothing in the code says why.
//!
//! Every row also pins our number as the harness prints it: a change
//! that moves one has to revisit its class.
//!
//! **Units.** The paper's Table III `dist` column reads as ion spacings,
//! not µm: in spacings QAOA matches it exactly at both heads, while the
//! µm `table3` prints (at the 5 µm pitch of `ExecTimeModel`) is 5× off
//! on every row. The `dist` rows therefore compare the move distance in
//! ion spacings and pin the printed µm.
//!
//! Every configuration runs through the harnesses' own entries,
//! `bench::run_tilt` and `bench::run_qccd_best`.

use bench::{run_qccd_best, run_tilt};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use tilt::benchmarks::{paper_suite, PAPER_FIG8_HEADLINE};
use tilt::engine::EngineBuilder;
use tilt::sim::ExecTimeModel;
use Class::{Deviation, Order, Unexplained, Within};

#[derive(Clone, Copy, Debug)]
enum Class {
    Within(f64),
    Order(f64, f64),
    Deviation(&'static str),
    Unexplained(&'static str),
}

impl Class {
    fn holds(self, paper: f64, ours: f64) -> bool {
        match self {
            Within(tol) => (ours - paper).abs() <= tol * paper,
            Order(lo, hi) => lo < ours / paper && ours / paper < hi,
            Deviation(reason) | Unexplained(reason) => !reason.is_empty(),
        }
    }
}

const SQRT: Class =
    Deviation("our SQRT stands in for ScaffCC's unpublished instance (914 vs 1028 2Q gates)");
const BV: Class = Unexplained(
    "identity placement parks the ancilla at the tape's end; interaction-chain \
     placement cuts head-16 moves to 8 (ablation 6), still twice the paper's 4",
);
const T_EXEC: Class = Unexplained(
    "Eq. 5 on our gate-time and 1 µm/µs shuttle models gives 19-157x less than the \
     paper, with no common factor",
);
const FAVOURS_TILT: Class = Order(1.0, f64::INFINITY);
const FAVOURS_QCCD: Class = Order(0.0, 1.0);
const COMPARABLE: Class = Order(0.5, 2.0);

/// `(claim, ours as printed, class)`.
const CLAIMS: &[(&str, &str, Class)] = &[
    ("Table II ADDER 2Q gates", "497", Within(0.10)),
    ("Table II BV 2Q gates", "63", Within(0.02)),
    ("Table II QAOA 2Q gates", "1260", Within(0.0)),
    ("Table II RCS 2Q gates", "560", Within(0.0)),
    ("Table II QFT 2Q gates", "4032", Within(0.0)),
    ("Table II SQRT 2Q gates", "914", Within(0.12)),
    ("Table III ADDER head 16 moves", "8", Within(0.25)),
    ("Table III ADDER head 16 dist", "480", Within(0.10)),
    ("Table III ADDER head 16 t_exec", "0.041", T_EXEC),
    ("Table III ADDER head 32 moves", "4", Within(0.25)),
    ("Table III ADDER head 32 dist", "320", Within(0.10)),
    ("Table III ADDER head 32 t_exec", "0.040", T_EXEC),
    ("Table III BV head 16 moves", "14", BV),
    ("Table III BV head 16 dist", "805", BV),
    ("Table III BV head 16 t_exec", "0.028", T_EXEC),
    ("Table III BV head 32 moves", "6", BV),
    ("Table III BV head 32 dist", "555", BV),
    ("Table III BV head 32 t_exec", "0.038", T_EXEC),
    ("Table III QAOA head 16 moves", "18", Within(0.0)),
    ("Table III QAOA head 16 dist", "1160", Within(0.0)),
    ("Table III QAOA head 16 t_exec", "0.046", T_EXEC),
    ("Table III QAOA head 32 moves", "4", Within(0.0)),
    ("Table III QAOA head 32 dist", "360", Within(0.0)),
    ("Table III QAOA head 32 t_exec", "0.028", T_EXEC),
    ("Table III RCS head 16 moves", "34", Order(0.5, 2.0)),
    ("Table III RCS head 16 dist", "3080", Order(0.5, 2.0)),
    ("Table III RCS head 16 t_exec", "0.026", T_EXEC),
    ("Table III RCS head 32 moves", "8", Order(0.5, 2.0)),
    ("Table III RCS head 32 dist", "840", Within(0.25)),
    ("Table III RCS head 32 t_exec", "0.031", T_EXEC),
    ("Table III QFT head 16 moves", "234", Order(0.5, 2.0)),
    ("Table III QFT head 16 dist", "11660", Within(0.25)),
    ("Table III QFT head 16 t_exec", "1.195", T_EXEC),
    ("Table III QFT head 32 moves", "72", Within(0.05)),
    ("Table III QFT head 32 dist", "7325", Within(0.25)),
    ("Table III QFT head 32 t_exec", "1.781", T_EXEC),
    ("Table III SQRT head 16 moves", "85", SQRT),
    ("Table III SQRT head 16 dist", "2665", SQRT),
    ("Table III SQRT head 16 t_exec", "0.296", T_EXEC),
    ("Table III SQRT head 32 moves", "53", SQRT),
    ("Table III SQRT head 32 dist", "1905", SQRT),
    ("Table III SQRT head 32 t_exec", "0.471", T_EXEC),
    ("Fig. 8 headline max (head 32)", "6.47", Order(0.5, 2.0)),
    ("Fig. 8 headline mean (head 32)", "1.98", Within(0.05)),
    // Nearest-neighbour traffic favours TILT (Fig. 8a).
    ("Fig. 8 order QAOA TILT-32/QCCD", "6.47", FAVOURS_TILT),
    ("Fig. 8 order RCS TILT-32/QCCD", "1.91", FAVOURS_TILT),
    // Long-distance QFT favours QCCD (Fig. 8b).
    ("Fig. 8 order QFT TILT-16/QCCD", "0.00", FAVOURS_QCCD),
    // "TILT has the same performance as QCCD" for ADDER and BV.
    ("Fig. 8 order ADDER TILT-16/QCCD", "1.47", COMPARABLE),
    ("Fig. 8 order BV TILT-16/QCCD", "0.99", COMPARABLE),
    // SQRT is long-distance too and favours QCCD at both heads.
    ("Fig. 8 order SQRT TILT-16/QCCD", "0.03", FAVOURS_QCCD),
    ("Fig. 8 order SQRT TILT-32/QCCD", "0.24", FAVOURS_QCCD),
];

/// One measured number: the paper's value, ours, ours as printed, and
/// whether a harness prints the paper's value beside it.
struct Measured {
    paper: f64,
    ours: f64,
    printed: String,
    printed_as_paper: bool,
}

fn measured() -> &'static BTreeMap<String, Measured> {
    static MEASURED: OnceLock<BTreeMap<String, Measured>> = OnceLock::new();
    MEASURED.get_or_init(|| {
        let mut m = BTreeMap::new();
        let mut put = |claim: String, paper: f64, ours: f64, printed: String, as_paper: bool| {
            let row = Measured {
                paper,
                ours,
                printed,
                printed_as_paper: as_paper,
            };
            assert!(m.insert(claim, row).is_none(), "a claim is measured twice");
        };
        let mut ratios32 = Vec::new();
        for b in paper_suite() {
            let count = b.circuit.two_qubit_count();
            let claim = format!("Table II {} 2Q gates", b.name);
            let paper = b.paper_two_qubit_gates as f64;
            put(claim, paper, count as f64, count.to_string(), true);
            let (qccd, _) = run_qccd_best(&b.circuit);
            for paper in b.paper_table3 {
                let run = run_tilt(&b.circuit, paper.head, EngineBuilder::default());
                let row = format!("Table III {} head {}", b.name, paper.head);
                let moves = run.compile.move_count;
                put(
                    format!("{row} moves"),
                    paper.moves as f64,
                    moves as f64,
                    moves.to_string(),
                    true,
                );
                let program = run.tilt_program().expect("a TILT run");
                let dist_um = ExecTimeModel::default().travel_um(program);
                put(
                    format!("{row} dist"),
                    paper.dist as f64,
                    run.compile.move_distance as f64,
                    format!("{dist_um:.0}"),
                    true,
                );
                let t_exec = run.exec_time_us / 1e6;
                put(
                    format!("{row} t_exec"),
                    paper.t_exec_s,
                    t_exec,
                    format!("{t_exec:.3}"),
                    true,
                );
                let ratio = run.success / qccd.success;
                let claim = format!("Fig. 8 order {} TILT-{}/QCCD", b.name, paper.head);
                put(claim, 1.0, ratio, format!("{ratio:.2}"), false);
                if paper.head == 32 {
                    ratios32.push(ratio);
                }
            }
        }
        let max = ratios32.iter().copied().fold(0.0, f64::max);
        let mean = ratios32.iter().sum::<f64>() / ratios32.len() as f64;
        let (paper_max, paper_mean) = PAPER_FIG8_HEADLINE;
        let claim = "Fig. 8 headline max (head 32)".to_string();
        put(claim, paper_max, max, format!("{max:.2}"), true);
        let claim = "Fig. 8 headline mean (head 32)".to_string();
        put(claim, paper_mean, mean, format!("{mean:.2}"), true);
        m
    })
}

/// Checks every row whose claim starts with `prefix`; returns how many.
fn check(prefix: &str) -> usize {
    let rows: Vec<_> = CLAIMS.iter().filter(|c| c.0.starts_with(prefix)).collect();
    for &&(claim, printed, class) in &rows {
        let m = measured()
            .get(claim)
            .unwrap_or_else(|| panic!("`{claim}` is not measured"));
        assert_eq!(m.printed, printed, "{claim}: ours moved; revisit its class");
        assert!(
            class.holds(m.paper, m.ours),
            "{claim}: ours {} against the paper's {} is not {class:?}",
            m.ours,
            m.paper
        );
    }
    rows.len()
}

#[test]
fn every_paper_number_has_one_row() {
    for (claim, m) in measured() {
        if m.printed_as_paper {
            let rows = CLAIMS.iter().filter(|c| c.0 == claim).count();
            assert_eq!(rows, 1, "`{claim}` has {rows} rows in CLAIMS");
        }
    }
}

#[test]
fn table2_two_qubit_counts_hold_their_class() {
    assert_eq!(check("Table II "), 6);
}

#[test]
fn table3_moves_dist_and_exec_time_hold_their_class() {
    assert_eq!(check("Table III "), 36);
}

#[test]
fn fig8_headline_holds_its_class() {
    assert_eq!(check("Fig. 8 headline "), 2);
}

#[test]
fn fig8_orderings_hold() {
    assert_eq!(check("Fig. 8 order "), 7);
}
