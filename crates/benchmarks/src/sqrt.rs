//! SQRT: Grover search for an integer square root (Grover,
//! quant-ph/9605043; JavadiAbhari et al., ScaffCC).
//!
//! The SQRT row of Table II: a 78-qubit Grover circuit that finds the
//! square root of a constant. The paper's instance comes from ScaffCC;
//! its compiled form is Grover iterations whose oracle reduces to
//! ancilla-ladder multi-controlled phase logic. We reproduce that compiled
//! structure directly: the oracle phase-flips the (classically known)
//! root via X-conjugated multi-controlled Z over the 40-qubit search
//! register, using the 38-qubit V-chain ancilla ladder — 78 qubits total.
//! This preserves the communication signature (long-distance,
//! ancilla-mediated two-qubit chains) and the gate-count scale; the SQRT
//! row of [`paper_suite`](crate::paper_suite) accounts for the count.

use crate::util::mcz_vchain;
use tilt_circuit::{Circuit, Qubit};

/// Builds a Grover-search circuit over a `bits`-wide register that marks
/// the integer square root of `square`, running `iterations` Grover
/// iterations.
///
/// Register layout: `bits` search qubits followed by `bits - 2` V-chain
/// ancillas, `2·bits - 2` qubits total.
///
/// # Panics
///
/// Panics if `bits < 3` or if `square` has no exact integer square root
/// representable in `bits` bits.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::sqrt::grover_sqrt;
///
/// let c = grover_sqrt(40, 36, 1); // isqrt(36) = 6
/// assert_eq!(c.n_qubits(), 78);
/// ```
pub fn grover_sqrt(bits: usize, square: u64, iterations: usize) -> Circuit {
    assert!(bits >= 3, "need at least 3 search bits for the V-chain");
    let root = integer_sqrt(square).unwrap_or_else(|| panic!("{square} is not a perfect square"));
    assert!(
        bits == 64 || root < (1u64 << bits),
        "root {root} does not fit in {bits} bits"
    );

    let n = 2 * bits - 2;
    let search: Vec<Qubit> = (0..bits).map(Qubit).collect();
    let ancillas: Vec<Qubit> = (bits..n).map(Qubit).collect();
    let mut c = Circuit::new(n);

    // Uniform superposition over the search register.
    for &q in &search {
        c.h(q);
    }

    for _ in 0..iterations {
        // Oracle: phase-flip |root⟩. X-conjugate the zero bits so the
        // multi-controlled Z fires exactly on the root pattern.
        for (i, &q) in search.iter().enumerate() {
            if (root >> i) & 1 == 0 {
                c.x(q);
            }
        }
        mcz_vchain(&mut c, &search, &ancillas);
        for (i, &q) in search.iter().enumerate() {
            if (root >> i) & 1 == 0 {
                c.x(q);
            }
        }

        // Diffusion: reflect about the mean.
        for &q in &search {
            c.h(q);
        }
        for &q in &search {
            c.x(q);
        }
        mcz_vchain(&mut c, &search, &ancillas);
        for &q in &search {
            c.x(q);
        }
        for &q in &search {
            c.h(q);
        }
    }
    c
}

/// Integer square root, `None` when `n` is not a perfect square.
fn integer_sqrt(n: u64) -> Option<u64> {
    let r = (n as f64).sqrt().round() as u64;
    (r.saturating_sub(1)..=r + 1).find(|&cand| cand.checked_mul(cand) == Some(n))
}

/// The Table II SQRT benchmark: 78 qubits (40-bit search register),
/// one Grover iteration, searching for `isqrt(1_048_576) = 1024`.
pub fn sqrt78() -> Circuit {
    grover_sqrt(40, 1 << 20, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn table2_qubit_count() {
        assert_eq!(sqrt78().n_qubits(), 78);
    }

    #[test]
    fn table2_two_qubit_gates_in_range() {
        // Two MCZ-over-40 per iteration: 2·(12·38 + 1) = 914 two-qubit
        // gates vs the paper's 1028 (ScaffCC's oracle lowering differs
        // slightly); within 12%, accounted for on the SQRT row of
        // `paper_suite`.
        let count = sqrt78().two_qubit_count();
        assert_eq!(count, 914);
        assert!((count as f64 - 1028.0).abs() / 1028.0 < 0.12);
    }

    #[test]
    fn iteration_scaling() {
        let one = grover_sqrt(8, 25, 1).two_qubit_count();
        let two = grover_sqrt(8, 25, 2).two_qubit_count();
        assert_eq!(two, 2 * one);
    }

    #[test]
    fn integer_sqrt_detects_squares() {
        assert_eq!(integer_sqrt(0), Some(0));
        assert_eq!(integer_sqrt(36), Some(6));
        assert_eq!(integer_sqrt(1 << 20), Some(1024));
        assert_eq!(integer_sqrt(35), None);
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn non_square_panics() {
        grover_sqrt(8, 26, 1);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_register_panics() {
        grover_sqrt(2, 4, 1);
    }

    #[test]
    fn circuit_is_valid() {
        assert!(validate(&sqrt78()).is_ok());
        assert!(validate(&grover_sqrt(5, 16, 3)).is_ok());
    }

    #[test]
    fn oracle_wraps_zero_bits_in_x() {
        // root = 2 = 0b10 in 3 bits → bits 0 and 2 are zero → X gates
        // appear in pairs around the oracle MCZ.
        let c = grover_sqrt(3, 4, 1);
        let x_count = c.iter().filter(|g| g.name() == "x").count();
        // Oracle wrap: 2 zero bits × 2 sides = 4; diffusion X-wrap: 3 × 2 = 6.
        assert_eq!(x_count, 10);
    }
}
