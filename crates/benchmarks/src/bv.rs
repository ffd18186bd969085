//! Bernstein–Vazirani (SIAM J. Comput. 26(5), 1997).
//!
//! The BV row of Table II: one oracle query recovers a secret bit string.
//! Every oracle CNOT targets the single ancilla at the end of the register,
//! so on a linear tape the circuit is dominated by *long-distance* gates —
//! the stress case for swap insertion (and the one benchmark where the
//! paper's LinQ finds no opposing swaps, Fig. 6a).

use tilt_circuit::{Circuit, Qubit};

/// Builds the Bernstein–Vazirani circuit over `n_qubits` total qubits:
/// `n_qubits - 1` data qubits plus one ancilla (the last qubit).
///
/// `secret` selects which data qubits carry a CNOT into the ancilla; it
/// must have length `n_qubits - 1`.
///
/// # Panics
///
/// Panics if `n_qubits < 2` or `secret.len() != n_qubits - 1`.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::bv::bernstein_vazirani;
///
/// let c = bernstein_vazirani(5, &[true, false, true, true]);
/// assert_eq!(c.two_qubit_count(), 3);
/// ```
pub fn bernstein_vazirani(n_qubits: usize, secret: &[bool]) -> Circuit {
    assert!(
        n_qubits >= 2,
        "BV needs at least one data qubit plus ancilla"
    );
    assert_eq!(
        secret.len(),
        n_qubits - 1,
        "secret must cover every data qubit"
    );
    let mut c = Circuit::new(n_qubits);
    let ancilla = Qubit(n_qubits - 1);

    // Prepare |-> on the ancilla and |+> on the data register.
    c.x(ancilla);
    for i in 0..n_qubits {
        c.h(Qubit(i));
    }
    // Oracle: f(x) = s·x via phase kickback.
    for (i, &bit) in secret.iter().enumerate() {
        if bit {
            c.cnot(Qubit(i), ancilla);
        }
    }
    // Undo the data-register Hadamards; the data register now holds `s`.
    for i in 0..n_qubits - 1 {
        c.h(Qubit(i));
    }
    c
}

/// The Table II BV benchmark: 64 qubits with the all-ones secret.
///
/// The all-ones secret maximises oracle CNOTs (63 of them — the paper
/// rounds this row to 64) and therefore communication pressure.
pub fn bv64() -> Circuit {
    bernstein_vazirani(64, &[true; 63])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn table2_qubit_count() {
        assert_eq!(bv64().n_qubits(), 64);
    }

    #[test]
    fn table2_two_qubit_gates() {
        // 63 oracle CNOTs; the paper's Table II rounds to 64.
        assert_eq!(bv64().two_qubit_count(), 63);
    }

    #[test]
    fn all_gates_target_the_ancilla() {
        let c = bv64();
        for g in c.iter().filter(|g| g.is_two_qubit()) {
            assert_eq!(g.operands()[1], Qubit(63));
        }
    }

    #[test]
    fn zero_secret_has_no_two_qubit_gates() {
        let c = bernstein_vazirani(8, &[false; 7]);
        assert_eq!(c.two_qubit_count(), 0);
        assert!(validate(&c).is_ok());
    }

    #[test]
    fn secret_weight_equals_cnot_count() {
        let secret = [true, false, true, false, true];
        let c = bernstein_vazirani(6, &secret);
        assert_eq!(c.two_qubit_count(), 3);
    }

    #[test]
    #[should_panic(expected = "secret must cover")]
    fn mismatched_secret_length_panics() {
        bernstein_vazirani(4, &[true]);
    }

    #[test]
    fn spans_are_long_distance() {
        let c = bv64();
        let min_span = c.iter().filter_map(tilt_circuit::Gate::span).min().unwrap();
        let max_span = c.iter().filter_map(tilt_circuit::Gate::span).max().unwrap();
        assert_eq!(min_span, 1);
        assert_eq!(max_span, 63);
    }
}
