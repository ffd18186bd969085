//! Cuccaro ripple-carry adder (quant-ph/0410184).
//!
//! The ADDER row of Table II: a 64-qubit instance is the `n = 31`-bit
//! adder (carry-in + 31 `a` bits + 31 `b` bits + carry-out = 64 qubits).
//! With the interleaved register layout used here every MAJ/UMA block
//! touches three *adjacent* tape positions, which is why the paper
//! classifies ADDER as "short-distance gates".

use crate::util::toffoli_cnot;
use tilt_circuit::{Circuit, Qubit};

/// Qubit layout of [`cuccaro_adder`]: `c, b0, a0, b1, a1, …, b_{n-1},
/// a_{n-1}, z` so that every MAJ/UMA acts on three neighbours.
///
/// Returns `(carry_in, b, a, carry_out)` index helpers for an `n`-bit adder.
fn layout(n: usize) -> (Qubit, Vec<Qubit>, Vec<Qubit>, Qubit) {
    let carry_in = Qubit(0);
    let b: Vec<Qubit> = (0..n).map(|i| Qubit(2 * i + 1)).collect();
    let a: Vec<Qubit> = (0..n).map(|i| Qubit(2 * i + 2)).collect();
    let carry_out = Qubit(2 * n + 1);
    (carry_in, b, a, carry_out)
}

/// MAJ block: computes the carry majority in place.
fn maj(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    c.cnot(z, y);
    c.cnot(z, x);
    toffoli_cnot(c, x, y, z);
}

/// UMA block (2-CNOT variant): undoes MAJ and writes the sum bit.
fn uma(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    toffoli_cnot(c, x, y, z);
    c.cnot(z, x);
    c.cnot(x, y);
}

/// Builds the `n`-bit Cuccaro ripple-carry adder `b ← a + b` on `2n + 2`
/// qubits, lowered to the CNOT level.
///
/// The 64-qubit Table II instance is [`adder64`] (`n = 31`).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::adder::cuccaro_adder;
///
/// let c = cuccaro_adder(31);
/// assert_eq!(c.n_qubits(), 64);
/// ```
pub fn cuccaro_adder(n: usize) -> Circuit {
    assert!(n > 0, "adder width must be positive");
    let (carry_in, b, a, carry_out) = layout(n);
    let mut c = Circuit::new(2 * n + 2);

    // Forward MAJ ladder.
    maj(&mut c, carry_in, b[0], a[0]);
    for i in 1..n {
        maj(&mut c, a[i - 1], b[i], a[i]);
    }
    // Carry out.
    c.cnot(a[n - 1], carry_out);
    // Reverse UMA ladder.
    for i in (1..n).rev() {
        uma(&mut c, a[i - 1], b[i], a[i]);
    }
    uma(&mut c, carry_in, b[0], a[0]);
    c
}

/// The Table II ADDER benchmark: the 64-qubit (31-bit) Cuccaro adder.
pub fn adder64() -> Circuit {
    cuccaro_adder(31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn table2_qubit_count() {
        assert_eq!(adder64().n_qubits(), 64);
    }

    #[test]
    fn table2_two_qubit_gates_in_range() {
        // Paper reports 545 2Q gates; the textbook Cuccaro construction with
        // 6-CNOT Toffolis gives 2n·8 + 1 = 497 for n = 31. The delta comes
        // from ScaffCC's slightly different Toffoli lowering; we accept the
        // textbook count, and the ADDER row of `paper_suite` records it.
        let count = adder64().two_qubit_count();
        assert_eq!(count, 497);
        assert!((count as f64 - 545.0).abs() / 545.0 < 0.10);
    }

    #[test]
    fn gates_are_local_in_interleaved_layout() {
        let c = adder64();
        // Every 2Q gate in the Cuccaro layout spans at most 2 positions.
        let max_span = c.iter().filter_map(tilt_circuit::Gate::span).max().unwrap();
        assert!(max_span <= 2, "max span {max_span}");
    }

    #[test]
    fn adder_is_valid_and_deterministic() {
        let a = cuccaro_adder(8);
        let b = cuccaro_adder(8);
        assert!(validate(&a).is_ok());
        assert_eq!(a, b);
    }

    #[test]
    fn small_adder_counts_scale_linearly() {
        // 2Q gates: n MAJ blocks (8 each) + n UMA blocks (8 each) + 1 carry.
        for n in 1..6 {
            let c = cuccaro_adder(n);
            assert_eq!(c.two_qubit_count(), 16 * n + 1);
            assert_eq!(c.n_qubits(), 2 * n + 2);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        cuccaro_adder(0);
    }
}
