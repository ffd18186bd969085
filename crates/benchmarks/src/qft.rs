//! Quantum Fourier Transform.
//!
//! The QFT row of Table II: the 64-qubit QFT has `64·63/2 = 2016`
//! controlled-phase rotations; lowered to the CNOT level (two CNOTs per
//! rotation, see [`tilt_circuit::cphase_network`]) that is exactly the
//! 4032 two-qubit gates the paper reports. Rotations couple every qubit
//! pair, so the circuit is dominated by long-distance gates — the worst
//! case for TILT (Fig. 8b).
//!
//! The trailing qubit-reversal swap network is omitted, as is conventional
//! for compiled QFT kernels (the reversal is classical re-indexing).

use crate::stream::qft_stream;
use tilt_circuit::Circuit;

/// Builds the `n`-qubit QFT at the CNOT level: the gates of
/// [`qft_stream`], collected.
///
/// # Example
///
/// ```
/// use tilt_benchmarks::qft::qft;
///
/// let c = qft(4);
/// assert_eq!(c.two_qubit_count(), 2 * (4 * 3) / 2);
/// ```
pub fn qft(n: usize) -> Circuit {
    Circuit::from_gates(n, qft_stream(n))
}

/// The Table II QFT benchmark: 64 qubits, 4032 two-qubit gates.
pub fn qft64() -> Circuit {
    qft(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn table2_counts() {
        let c = qft64();
        assert_eq!(c.n_qubits(), 64);
        assert_eq!(c.two_qubit_count(), 4032);
    }

    #[test]
    fn two_qubit_count_formula() {
        for n in 2..10 {
            assert_eq!(qft(n).two_qubit_count(), n * (n - 1));
        }
    }

    #[test]
    fn has_long_distance_gates() {
        let c = qft64();
        let max_span = c.iter().filter_map(tilt_circuit::Gate::span).max().unwrap();
        assert_eq!(max_span, 63);
    }

    #[test]
    fn one_hadamard_per_qubit() {
        let c = qft(16);
        let h_count = c.iter().filter(|g| g.name() == "h").count();
        assert_eq!(h_count, 16);
    }

    #[test]
    fn rotation_angles_halve() {
        // The controlled rotation between qubits i and j has angle π/2^(j-i).
        let c = qft(3);
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match *g {
                tilt_circuit::Gate::Rz(_, a) => Some(a),
                _ => None,
            })
            .collect();
        // First rotation of the first cphase is π/4 (= λ/2, λ = π/2).
        assert!((angles[0] - std::f64::consts::PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn qft_is_valid_and_deterministic() {
        assert!(validate(&qft64()).is_ok());
        assert_eq!(qft(8), qft(8));
    }
}
