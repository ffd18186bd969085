//! The paper's benchmark registry (Table II) and the one table of the
//! numbers the paper reports for it (Tables II and III, the Fig. 8
//! headline), which `tests/paper_claims.rs` classes against ours.

use crate::{adder, bv, qaoa, qft, rcs, sqrt};
use std::fmt;
use tilt_circuit::Circuit;

/// Communication pattern classes from Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommunicationPattern {
    /// Two-qubit gates between close-by tape positions (ADDER).
    ShortDistance,
    /// Two-qubit gates spanning most of the tape (BV, QFT, SQRT).
    LongDistance,
    /// Strictly adjacent interactions, possibly via a 2D-grid embedding
    /// (QAOA, RCS).
    NearestNeighbor,
}

impl fmt::Display for CommunicationPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommunicationPattern::ShortDistance => "Short-distance gates",
            CommunicationPattern::LongDistance => "Long-distance gates",
            CommunicationPattern::NearestNeighbor => "Nearest-neighbor gates",
        };
        f.write_str(s)
    }
}

/// One Table II row: a named benchmark circuit plus the numbers the paper
/// reports for it.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Table II application name.
    pub name: &'static str,
    /// The generated circuit (CNOT level).
    pub circuit: Circuit,
    /// Communication class from Table II.
    pub communication: CommunicationPattern,
    /// The "2Q Gates" count printed in Table II. Where our generator's
    /// count differs, the row in [`paper_suite`] says why.
    pub paper_two_qubit_gates: usize,
    /// The Table III row at head 16, then at head 32.
    pub paper_table3: [PaperTable3; 2],
}

/// One application's Table III row at one head size (LinQ defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTable3 {
    /// Laser-head size of the row.
    pub head: usize,
    /// Tape moves (`#moves`).
    pub moves: usize,
    /// Tape travel (`dist`), as printed in the paper.
    pub dist: usize,
    /// Estimated program execution time in seconds (`t_exec`, Eq. 5).
    pub t_exec_s: f64,
}

/// The Fig. 8 headline of §I and §VI-B, TILT's success rate over the
/// best QCCD configuration of the 15–35-ion trap sweep: up to 4.35×,
/// 1.95× on average over the suite.
pub const PAPER_FIG8_HEADLINE: (f64, f64) = (4.35, 1.95);

/// A Table III row pair: `(moves, dist, t_exec)` at head 16, then 32.
fn table3(h16: (usize, usize, f64), h32: (usize, usize, f64)) -> [PaperTable3; 2] {
    [(16, h16), (32, h32)].map(|(head, (moves, dist, t_exec_s))| PaperTable3 {
        head,
        moves,
        dist,
        t_exec_s,
    })
}

impl Benchmark {
    /// True when the benchmark requires swap insertion on a head of size
    /// `head_size` (i.e. it contains a gate spanning at least the head).
    pub fn needs_swaps(&self, head_size: usize) -> bool {
        self.circuit
            .iter()
            .filter_map(tilt_circuit::Gate::span)
            .any(|d| d >= head_size)
    }
}

/// Builds all six Table II benchmarks in paper order:
/// ADDER, BV, QAOA, RCS, QFT, SQRT.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::paper_suite;
///
/// let suite = paper_suite();
/// assert_eq!(suite.len(), 6);
/// assert_eq!(suite[0].name, "ADDER");
/// assert_eq!(suite[4].circuit.n_qubits(), 64);
/// ```
pub fn paper_suite() -> Vec<Benchmark> {
    vec![
        // 497 two-qubit gates against 545: the textbook Cuccaro adder
        // with 6-CNOT Toffolis has 2·8·31 + 1 = 497 for 31-bit operands;
        // the paper's ScaffCC build lowers its Toffolis differently, and
        // that lowering is not published.
        Benchmark {
            name: "ADDER",
            circuit: adder::adder64(),
            communication: CommunicationPattern::ShortDistance,
            paper_two_qubit_gates: 545,
            paper_table3: table3((10, 104, 2.967), (5, 68, 3.252)),
        },
        // 63 against 64: the all-ones secret over 63 data qubits has one
        // oracle CNOT per data qubit, and the paper rounds the row to 64.
        Benchmark {
            name: "BV",
            circuit: bv::bv64(),
            communication: CommunicationPattern::LongDistance,
            paper_two_qubit_gates: 64,
            paper_table3: table3((4, 49, 0.856), (2, 33, 0.987)),
        },
        Benchmark {
            name: "QAOA",
            circuit: qaoa::qaoa64(),
            communication: CommunicationPattern::NearestNeighbor,
            paper_two_qubit_gates: 1260,
            paper_table3: table3((18, 232, 1.564), (4, 72, 1.357)),
        },
        Benchmark {
            name: "RCS",
            circuit: rcs::rcs64(),
            communication: CommunicationPattern::NearestNeighbor,
            paper_two_qubit_gates: 560,
            paper_table3: table3((65, 992, 1.704), (11, 214, 0.856)),
        },
        Benchmark {
            name: "QFT",
            circuit: qft::qft64(),
            communication: CommunicationPattern::LongDistance,
            paper_two_qubit_gates: 4032,
            paper_table3: table3((162, 2002, 24.820), (69, 1276, 33.876)),
        },
        // 914 against 1028: the paper's instance is ScaffCC's compiled
        // SQRT, which is not published. Ours keeps its structure (one
        // Grover iteration, two multi-controlled Z over the 40-qubit
        // search register on a 38-ancilla V-chain, 2·(12·38 + 1) = 914
        // two-qubit gates); ScaffCC's oracle lowering adds the rest.
        Benchmark {
            name: "SQRT",
            circuit: sqrt::sqrt78(),
            communication: CommunicationPattern::LongDistance,
            paper_two_qubit_gates: 1028,
            paper_table3: table3((168, 1816, 46.554), (76, 1068, 40.817)),
        },
    ]
}

/// Returns the subset of the suite with long-distance communication —
/// the benchmarks used for the swap-insertion studies (Figs. 6 and 7).
pub fn long_distance_suite() -> Vec<Benchmark> {
    paper_suite()
        .into_iter()
        .filter(|b| b.communication == CommunicationPattern::LongDistance)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn suite_has_paper_rows_in_order() {
        let names: Vec<_> = paper_suite().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["ADDER", "BV", "QAOA", "RCS", "QFT", "SQRT"]);
    }

    #[test]
    fn qubit_counts_match_table2() {
        let expected = [64, 64, 64, 64, 64, 78];
        for (b, &n) in paper_suite().iter().zip(&expected) {
            assert_eq!(b.circuit.n_qubits(), n, "{}", b.name);
        }
    }

    #[test]
    fn two_qubit_counts_close_to_table2() {
        for b in paper_suite() {
            let ours = b.circuit.two_qubit_count() as f64;
            let paper = b.paper_two_qubit_gates as f64;
            let rel = (ours - paper).abs() / paper;
            assert!(rel < 0.12, "{}: ours {ours} vs paper {paper}", b.name);
        }
    }

    #[test]
    fn all_circuits_validate() {
        for b in paper_suite() {
            assert!(validate(&b.circuit).is_ok(), "{}", b.name);
        }
    }

    #[test]
    fn long_distance_suite_is_bv_qft_sqrt() {
        let names: Vec<_> = long_distance_suite().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["BV", "QFT", "SQRT"]);
    }

    #[test]
    fn needs_swaps_matches_communication_class() {
        for b in paper_suite() {
            let needs = b.needs_swaps(16);
            match b.communication {
                CommunicationPattern::LongDistance => assert!(needs, "{}", b.name),
                _ => assert!(!needs, "{}", b.name),
            }
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = paper_suite();
        let b = paper_suite();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.circuit, y.circuit, "{}", x.name);
        }
    }
}
