//! Random Circuit Sampling (Boixo et al., Nat. Phys. 14; Arute et al.,
//! Nature 574).
//!
//! The RCS row of Table II: a Google-style supremacy circuit on an 8×8
//! qubit grid, 20 entangling cycles alternating four CZ patterns
//! (32+24+32+24 = 112 CZs per four cycles → 560 total), with random
//! single-qubit gates from `{√X, √Y, T}` between cycles. Mapped row-major
//! onto the tape, gates are nearest-neighbour (distance 1 or `cols`).

use crate::stream::rcs_stream;
use tilt_circuit::Circuit;

/// The four entangling patterns of the supremacy-style cycle.
///
/// Horizontal patterns pair `(r, c)–(r, c+1)`; vertical patterns pair
/// `(r, c)–(r+1, c)`; `Even`/`Odd` selects the parity of the free
/// coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pattern {
    HorizontalEven,
    HorizontalOdd,
    VerticalEven,
    VerticalOdd,
}

const CYCLE_ORDER: [Pattern; 4] = [
    Pattern::HorizontalEven,
    Pattern::HorizontalOdd,
    Pattern::VerticalEven,
    Pattern::VerticalOdd,
];

/// Pairs activated by `pattern` on a `rows × cols` grid, as row-major
/// qubit indices.
fn pattern_pairs(rows: usize, cols: usize, pattern: Pattern) -> Vec<(usize, usize)> {
    let at = |r: usize, c: usize| r * cols + c;
    let mut pairs = Vec::new();
    match pattern {
        Pattern::HorizontalEven | Pattern::HorizontalOdd => {
            let start = if pattern == Pattern::HorizontalEven {
                0
            } else {
                1
            };
            for r in 0..rows {
                for c in (start..cols.saturating_sub(1)).step_by(2) {
                    pairs.push((at(r, c), at(r, c + 1)));
                }
            }
        }
        Pattern::VerticalEven | Pattern::VerticalOdd => {
            let start = if pattern == Pattern::VerticalEven {
                0
            } else {
                1
            };
            for r in (start..rows.saturating_sub(1)).step_by(2) {
                for c in 0..cols {
                    pairs.push((at(r, c), at(r + 1, c)));
                }
            }
        }
    }
    pairs
}

/// The CZ pairs of entangling cycle `cycle` (patterns rotate with
/// period 4), for the generator in [`crate::stream`].
pub(crate) fn rcs_cycle_order(rows: usize, cols: usize, cycle: usize) -> Vec<(usize, usize)> {
    pattern_pairs(rows, cols, CYCLE_ORDER[cycle % 4])
}

/// Builds a random-circuit-sampling benchmark on a `rows × cols` grid with
/// `cycles` entangling cycles, seeded deterministically: the gates of
/// [`rcs_stream`], collected.
///
/// Each cycle applies a random gate from `{√X, √Y, T}` to every qubit
/// (never repeating the previous choice on the same qubit, per the Google
/// protocol) followed by the CZs of the cycle's pattern. An initial
/// Hadamard layer puts the register in superposition.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::rcs::random_circuit_sampling;
///
/// let c = random_circuit_sampling(8, 8, 20, 11);
/// assert_eq!(c.n_qubits(), 64);
/// assert_eq!(c.two_qubit_count(), 560); // Table II
/// ```
pub fn random_circuit_sampling(rows: usize, cols: usize, cycles: usize, seed: u64) -> Circuit {
    Circuit::from_gates(rows * cols, rcs_stream(rows, cols, cycles, seed))
}

/// The Table II RCS benchmark: 8×8 grid, 20 cycles, 560 CZ gates.
pub fn rcs64() -> Circuit {
    random_circuit_sampling(8, 8, 20, 11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn table2_counts() {
        let c = rcs64();
        assert_eq!(c.n_qubits(), 64);
        assert_eq!(c.two_qubit_count(), 560);
    }

    #[test]
    fn pattern_sizes_on_8x8() {
        assert_eq!(pattern_pairs(8, 8, Pattern::HorizontalEven).len(), 32);
        assert_eq!(pattern_pairs(8, 8, Pattern::HorizontalOdd).len(), 24);
        assert_eq!(pattern_pairs(8, 8, Pattern::VerticalEven).len(), 32);
        assert_eq!(pattern_pairs(8, 8, Pattern::VerticalOdd).len(), 24);
    }

    #[test]
    fn pattern_pairs_are_disjoint_within_a_cycle() {
        for p in CYCLE_ORDER {
            let pairs = pattern_pairs(8, 8, p);
            let mut seen = std::collections::HashSet::new();
            for (a, b) in pairs {
                assert!(seen.insert(a), "{p:?} reuses qubit {a}");
                assert!(seen.insert(b), "{p:?} reuses qubit {b}");
            }
        }
    }

    #[test]
    fn row_major_spans_are_one_or_cols() {
        let c = rcs64();
        for g in c.iter().filter(|g| g.is_two_qubit()) {
            let s = g.span().unwrap();
            assert!(s == 1 || s == 8, "span {s}");
        }
    }

    #[test]
    fn single_qubit_layer_never_repeats_choice() {
        let c = random_circuit_sampling(2, 2, 10, 3);
        let mut prev: Vec<Option<&str>> = vec![None; 4];
        for g in &c {
            if g.is_single_qubit_unitary() && g.name() != "h" {
                let q = g.operands()[0].index();
                assert_ne!(prev[q], Some(g.name()));
                prev[q] = Some(g.name());
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_eq!(
            random_circuit_sampling(4, 4, 8, 5),
            random_circuit_sampling(4, 4, 8, 5)
        );
    }

    #[test]
    fn circuit_is_valid() {
        assert!(validate(&rcs64()).is_ok());
    }
}
